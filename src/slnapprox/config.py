"""Runtime configuration: engine parameters and budgets.

All values have safe defaults; a JSON file with any subset of the fields can
override them (see ``Config.from_json``).  The schema is flat:

    {
      "r_g": 4,
      "oracle_cell_budget": 1000000000,
      "optimized_row_budget": 10000000,
      "density_order_budget": 100000000,
      "spectral_vertex_budget": 20000,
      "spectral_shell_budget": 10000000,
      "volume_crosscheck_limit": 200000
    }

The integrability exponent iota is derived from ``r_g`` (see
``Config.derived_iota``); no key sets it.
Ball centers are always snapped to the 2**-53 dyadic grid; no key sets it.
Factoring is bounded by the constants ``core.FACTOR_TRIAL_LIMIT`` and
``core.RHO_STEP_CAP``; no key sets them.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass


@dataclass(frozen=True, kw_only=True)
class Config:
    # engine parameters
    r_g: int = 4
    # budgets
    oracle_cell_budget: int = 10**9
    optimized_row_budget: int = 10**7
    density_order_budget: int = 10**8
    spectral_vertex_budget: int = 20000
    # spectral_shell_budget bounds the generators a Hecke shell streams
    spectral_shell_budget: int = 10**7
    volume_crosscheck_limit: int = 2 * 10**5

    @property
    def derived_iota(self) -> int:
        """Integrability exponent: 1 for r_g = 2, else least even int >= r_g/2."""
        if self.r_g == 2:
            return 1
        e = -(-self.r_g // 2)
        return e if e % 2 == 0 else e + 1

    @classmethod
    def from_json(cls, path: str) -> "Config":
        """Read a config file; unknown keys and ill-typed values raise ValueError."""
        with open(path) as fp:
            raw = json.load(fp)
        if not isinstance(raw, dict):
            raise ValueError("a config file holds a JSON object")
        types = {f.name: f.type for f in dataclasses.fields(cls)}
        bad = set(raw) - set(types)
        if bad:
            raise ValueError(f"unknown config keys: {sorted(bad)}")
        for key, value in raw.items():
            # every field is an int; JSON true/false load as bool, not int
            if type(value) is not int:
                raise ValueError(f"config key {key!r} takes {types[key]}, got {value!r}")
        return cls(**raw)


DEFAULT_CONFIG = Config()
