"""Cartesian grid geometry: rank grids, local domains, and index arithmetic.

The global grid is ordered lexicographically with x fastest, then y, then z.
Every rank owns an axis-aligned box of identical shape; the box origin is the
rank coordinate times the local dimensions.  All objects here are immutable
and safe to share between rank workers.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

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

    @property
    def n_global(self):
        return self.nx * self.ny * self.nz

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

    Carries enough of the global layout (global dims, rank grid) to do all
    local<->global index arithmetic without consulting other ranks.
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

    def local_index(self, i, j, k):
        """Natural (pre-reordering) local row index of local coords (i, j, k)."""
        return i + self.lnx * (j + self.lny * k)

    def global_coords(self, g):
        gx = g % self.gnx
        rem = g // self.gnx
        return gx, rem % self.gny, rem // self.gny

    def global_to_local(self, g):
        """Natural local row indices of an array of global indices this rank
        owns; raises ValueError if any is not owned."""
        g = np.asarray(g)
        gx, gy, gz = self.global_coords(g)
        i, j, k = gx - self.ox, gy - self.oy, gz - self.oz
        owned = ((0 <= i) & (i < self.lnx) & (0 <= j) & (j < self.lny)
                 & (0 <= k) & (k < self.lnz))
        if not owned.all():
            raise ValueError(f"global index {g[~owned].flat[0]} "
                             f"not owned by rank {self.rank}")
        return self.local_index(i, j, k)

    def owner_rank(self, g):
        """Rank id owning global index ``g`` (elementwise for an array)."""
        gx, gy, gz = self.global_coords(g)
        return (gx // self.lnx) + self.npx * ((gy // self.lny) + self.npy * (gz // self.lnz))

    def neighbor_ranks(self):
        """Ranks owning boxes adjacent to this one (face, edge or corner)."""
        out = set()
        for dz in (-1, 0, 1):
            for dy in (-1, 0, 1):
                for dx in (-1, 0, 1):
                    if dx == dy == dz == 0:
                        continue
                    cx, cy, cz = self.ix + dx, self.iy + dy, self.iz + dz
                    if 0 <= cx < self.npx and 0 <= cy < self.npy and 0 <= cz < self.npz:
                        out.add(cx + self.npx * (cy + self.npy * cz))
        return sorted(out)

    def coarsen(self):
        """Halve every dimension; raises CoarseningError naming the odd axis."""
        for axis, dim in (("x", self.lnx), ("y", self.lny), ("z", self.lnz)):
            if dim % 2:
                raise CoarseningError(
                    f"axis {axis}: local dimension {dim} is odd at level {self.level}")
        return replace(self, lnx=self.lnx // 2, lny=self.lny // 2, lnz=self.lnz // 2,
                       gnx=self.gnx // 2, gny=self.gny // 2, gnz=self.gnz // 2,
                       level=self.level + 1)
