"""Cartesian grid geometry: rank grids, local domains, and index arithmetic.

The global grid is ordered lexicographically with x fastest, then y, then z.
Every rank owns an axis-aligned box of identical shape; the box origin is the
rank coordinate times the local dimensions.  All objects here are immutable
and safe to share between rank workers.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np


class CoarseningError(Exception):
    """A local grid dimension is odd and cannot be halved."""


def factor_ranks(p):
    """Factor ``p`` ranks into a 3D grid ``(npx, npy, npz)``.

    Chooses, among all factorizations, the triple with the smallest
    max/min axis ratio; ties are broken by preferring npx <= npy <= npz
    and then lexicographic order.  A prime count degenerates to (1, 1, p).
    """
    if p < 1:
        raise ValueError(f"rank count must be >= 1, got {p}")
    best = None
    for a in range(1, p + 1):
        if p % a:
            continue
        q = p // a
        for b in range(a, q + 1):
            if q % b:
                continue
            c = q // b
            if c < b:
                continue
            key = (c / a, (a, b, c))
            if best is None or key < best:
                best = key
    return best[1]


@dataclass(frozen=True)
class GlobalProblem:
    """Global grid dimensions and their division into a rank grid."""

    nx: int
    ny: int
    nz: int
    npx: int
    npy: int
    npz: int
    lnx: int
    lny: int
    lnz: int

    @classmethod
    def from_local(cls, lnx, lny, lnz, ranks):
        """Build the global problem for identical local boxes on ``ranks`` ranks."""
        npx, npy, npz = factor_ranks(ranks)
        return cls(nx=npx * lnx, ny=npy * lny, nz=npz * lnz,
                   npx=npx, npy=npy, npz=npz, lnx=lnx, lny=lny, lnz=lnz)

    @property
    def ranks(self):
        return self.npx * self.npy * self.npz

    def domain(self, rank):
        """The local domain owned by ``rank`` (finest level)."""
        if not 0 <= rank < self.ranks:
            raise ValueError(f"rank {rank} out of range for {self.ranks} ranks")
        ix = rank % self.npx
        iy = (rank // self.npx) % self.npy
        iz = rank // (self.npx * self.npy)
        return LocalDomain(rank=rank, ix=ix, iy=iy, iz=iz,
                           lnx=self.lnx, lny=self.lny, lnz=self.lnz,
                           npx=self.npx, npy=self.npy, npz=self.npz,
                           gnx=self.nx, gny=self.ny, gnz=self.nz, level=0)


@dataclass(frozen=True)
class LocalDomain:
    """One rank's box at one grid level.

    Carries enough of the global layout (global dims, rank grid) to place
    every point of its halo without consulting other ranks.
    """

    rank: int
    ix: int
    iy: int
    iz: int
    lnx: int
    lny: int
    lnz: int
    npx: int
    npy: int
    npz: int
    gnx: int
    gny: int
    gnz: int
    level: int = 0

    @property
    def ox(self):
        return self.ix * self.lnx

    @property
    def oy(self):
        return self.iy * self.lny

    @property
    def oz(self):
        return self.iz * self.lnz

    @property
    def n_rows(self):
        return self.lnx * self.lny * self.lnz

    def coords(self):
        """3 x n_rows local (x, y, z) of every owned point, natural order."""
        return np.indices((self.lnz, self.lny, self.lnx)).reshape(3, -1)[::-1]

    @cached_property
    def shell(self):
        """The one-point shell around the box, in halo slot order.

        Covers every point of the extended (lnx+2)(lny+2)(lnz+2) box that
        lies inside the global grid but outside the box, sorted by owner
        rank, then global id.  Its four read-only rows, over those points,
        are the index in the extended box (x fastest), the global id, the
        owner rank, and the natural local row of the nearest owned point.
        The nearest rows of one owner's points are the owned points in that
        owner's shell, in the owner's slot order: what this rank sends it.
        """
        dims = np.array([[self.lnx], [self.lny], [self.lnz]])
        gdims = np.array([[self.gnx], [self.gny], [self.gnz]])
        # local coords of every extended-box point, x fastest
        loc = np.indices((self.lnz + 2, self.lny + 2, self.lnx + 2)
                         ).reshape(3, -1)[::-1] - 1
        g = loc + np.array([[self.ox], [self.oy], [self.oz]])
        side = (loc >= dims).astype(np.intp) - (loc < 0)   # -1, 0, +1
        in_grid = ((g >= 0) & (g < gdims)).all(axis=0)
        ext = np.flatnonzero(in_grid & side.any(axis=0))
        gid = g[0, ext] + self.gnx * (g[1, ext] + self.gny * g[2, ext])
        c = np.array([[self.ix], [self.iy], [self.iz]]) + side[:, ext]
        owner = c[0] + self.npx * (c[1] + self.npy * c[2])
        near = np.clip(loc[:, ext], 0, dims - 1)
        near = near[0] + self.lnx * (near[1] + self.lny * near[2])
        shell = np.stack((ext, gid, owner, near))[:, np.lexsort((gid, owner))]
        shell.flags.writeable = False   # one copy, shared by every caller
        return shell

    def coarsen(self):
        """Halve every dimension; raises CoarseningError naming the odd axis."""
        for axis, dim in (("x", self.lnx), ("y", self.lny), ("z", self.lnz)):
            if dim % 2:
                raise CoarseningError(
                    f"axis {axis}: local dimension {dim} is odd at level {self.level}")
        return replace(self, lnx=self.lnx // 2, lny=self.lny // 2, lnz=self.lnz // 2,
                       gnx=self.gnx // 2, gny=self.gny // 2, gnz=self.gnz // 2,
                       level=self.level + 1)
