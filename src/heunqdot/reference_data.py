"""Loader for the checked-in published reference values.

The data file is plain text, one constant per line in the form
``table.row.col = value  # provenance``. Values are immutable after loading;
everything downstream treats them as comparison targets, never as inputs to
the computation itself.
"""

from __future__ import annotations

import functools
from importlib import resources
from types import MappingProxyType
from typing import NamedTuple

_DATA_FILE = "reference_values.txt"


def _parse(text: str) -> dict[str, float]:
    out: dict[str, float] = {}
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, value = line.partition("=")
        key = key.strip()
        if not key or not value.strip():
            raise ValueError(f"malformed reference line: {line!r}")
        if key in out:
            raise ValueError(f"duplicate reference key: {key}")
        out[key] = float(value.strip())
    return out


class ReferenceTables(NamedTuple):
    """Typed access to the published tables."""

    raw: MappingProxyType

    def roots(self, l: int) -> dict[int, tuple[float, ...]]:
        """Published finite roots of 1/sqrt(omega) per state label n."""
        table = "table1" if l == 0 else "table2"
        if l not in (0, 1):
            raise KeyError(f"no published root table for l={l}")
        out: dict[int, tuple[float, ...]] = {}
        for n in (2, 3, 4, 5):
            vals = []
            for idx in (1, 2, 3):
                key = f"{table}.n{n}.root{idx}"
                if key in self.raw:
                    vals.append(self.raw[key])
            out[n] = tuple(vals)
        return out

    def comparison_roots(self, l: int) -> dict[int, tuple[float, ...]]:
        """Earlier-work comparison column (display only)."""
        if l != 0:
            return {}
        out = {}
        for n in (2, 3, 4, 5):
            vals = [self.raw[k] for i in (1, 2)
                    if (k := f"table1.n{n}.comparison{i}") in self.raw]
            out[n] = tuple(vals)
        return out

    def asymptotic(self, n: int, l: int) -> bool:
        """Whether the published row for (n, l) lists a 0 entry; False for
        every (n, l) outside the published tables."""
        if l not in (0, 1):
            return False
        table = "table1" if l == 0 else "table2"
        return bool(self.raw.get(f"{table}.n{n}.asymptotic", 0.0))

    def energies(self) -> dict[int, dict[str, float]]:
        """Table 3 rows: eps_prime / eps_int are display-only, eta is the target."""
        return {n: {"eps_prime": self.raw[f"table3.n{n}.eps_prime"],
                    "eps_int": self.raw[f"table3.n{n}.eps_int"],
                    "eta": self.raw[f"table3.n{n}.eta"]}
                for n in (2, 3, 4, 5)}

    def normalization(self, n: int, l: int) -> float:
        return self.raw[f"table4.n{n}l{l}.N"]

    def r_mean(self, n: int, l: int) -> float:
        return self.raw[f"table5.n{n}l{l}.r_mean"]

    def r_mean_claimed_range(self) -> tuple[float, float]:
        return (self.raw["misc.r_mean_claim.low"], self.raw["misc.r_mean_claim.high"])


@functools.cache
def load_reference() -> ReferenceTables:
    """The published tables, loaded once per process."""
    text = resources.files(__package__).joinpath(_DATA_FILE).read_text()
    return ReferenceTables(raw=MappingProxyType(_parse(text)))
