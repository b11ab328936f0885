"""1-D lattice of spin-1/2 sites.

Site ``x`` lives on bit ``x`` of the basis index, bit value 0 meaning the
sigma_z eigenvalue +1 ("up") and 1 meaning -1 ("down").  ``SITE_CAP``
keeps dense state vectors at 2^18 amplitudes; what bounds N is the Lanczos
basis (32 x 2^(N-1) doubles) and the solve time, as the table is built in blocks.
"""

from dataclasses import dataclass

from .errors import ValidationError

OPEN_CHAIN = "open-chain"
PERIODIC_CHAIN = "periodic-chain"
GEOMETRIES = (OPEN_CHAIN, PERIODIC_CHAIN)

SITE_CAP = 18


@dataclass(frozen=True)
class LatticeSpec:
    """Chain of ``n_sites`` spin-1/2 sites with open or periodic ends; the
    scenario or the state-file reader has checked 1 <= n_sites <= SITE_CAP."""

    n_sites: int
    geometry: str = OPEN_CHAIN

    @property
    def dim(self):
        return 1 << self.n_sites

    @property
    def sites(self):
        return range(self.n_sites)

    def validate_site(self, x):
        if not isinstance(x, int) or isinstance(x, bool) or not 0 <= x < self.n_sites:
            raise ValidationError(
                f"site index {x!r} out of range for n_sites={self.n_sites}"
            )

    def bonds(self):
        """Nearest-neighbour bonds as (x, y) pairs, no duplicates."""
        n = self.n_sites
        if n < 2:
            return []
        pairs = [(x, x + 1) for x in range(n - 1)]
        if self.geometry == PERIODIC_CHAIN and n > 2:
            pairs.append((n - 1, 0))
        return pairs

    @property
    def max_distance(self):
        """Largest separation of two sites: N - 1 on an open chain, N // 2 on a ring."""
        return self.n_sites // 2 if self.geometry == PERIODIC_CHAIN else self.n_sites - 1

    def distance(self, x, y):
        """Separation of two sites; ring distance on periodic chains."""
        d = abs(x - y)
        if self.geometry == PERIODIC_CHAIN:
            d = min(d, self.n_sites - d)
        return d
