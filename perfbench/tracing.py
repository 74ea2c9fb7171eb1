"""Per-layer tracing of slnapprox from outside the package.

Every hook replaces a public function at the name its caller looks it up
under (``engine`` imports ``enumerate_points`` and ``coprime_part`` by name,
``cli`` goes through module attributes), so the package itself is never
edited.  Each call records one span (name, start, end, parent) in compact
in-memory arrays; self times are derived from the spans afterwards.  Work
counters are taken from arguments and results after the span has closed.

A hook whose target no longer exists is skipped, and every metric that
depends on it reads ``None``: later versions of the package may rename
internals without breaking the benchmark.
"""

from __future__ import annotations

import importlib
import statistics
import time
from array import array
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class _WitnessFrame:
    """Progress of one find_witness call, for the first-unit position."""

    values_calls: int = 0
    first_unit: int | None = None


@dataclass
class PassCounters:
    """Work counters of one traced pass."""

    enum_calls: int = 0
    enum_points: int = 0
    enum_rows: int = 0
    jsonl_bytes: int = 0
    values_calls: int = 0
    coprime_calls: int = 0
    coprime_parts: set = field(default_factory=set)
    factorize_incomplete: int = 0
    candidates: int = 0
    zeros_skipped: int = 0
    unit_shares: list = field(default_factory=list)
    group_elements: int = 0
    words_sampled: int = 0
    vertices: int = 0
    operator_nnz: int = 0
    operator_bytes: int = 0
    xi_residues: int = 0


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


# ---------------------------------------------------------------------------
# counter updates, run after the traced call returns


def _post_enumerate(tr, args, kwargs, result, state):
    from slnapprox import enumeration

    tr.counters.enum_calls += 1
    tr.counters.enum_points += result.count
    (a_lo, a_hi), (b_lo, b_hi) = enumeration.entry_bounds(
        _arg(args, kwargs, 0, "ball")
    )[0]
    tr.counters.enum_rows += max(0, a_hi - a_lo + 1) * max(0, b_hi - b_lo + 1)


def _pre_write_jsonl(args, kwargs):
    try:
        return _arg(args, kwargs, 1, "fp").tell()
    except (OSError, AttributeError, ValueError):
        return None


def _post_write_jsonl(tr, args, kwargs, result, state):
    if state is None:
        return
    tr.counters.jsonl_bytes += _arg(args, kwargs, 1, "fp").tell() - state


def _post_values(tr, args, kwargs, result, state):
    tr.counters.values_calls += 1
    if tr.witness_frames:
        tr.witness_frames[-1].values_calls += 1


def _post_coprime_part(tr, args, kwargs, result, state):
    tr.counters.coprime_calls += 1
    tr.counters.coprime_parts.add(result.coprime_part)
    if tr.witness_frames and result.factor_count == 0:
        frame = tr.witness_frames[-1]
        if frame.first_unit is None:
            frame.first_unit = frame.values_calls


def _post_factorize(tr, args, kwargs, result, state):
    if not result[2]:
        tr.counters.factorize_incomplete += 1


def _pre_find_witness(args, kwargs):
    return _WitnessFrame()


def _post_find_witness(tr, args, kwargs, result, state):
    tr.counters.candidates += result.candidates
    tr.counters.zeros_skipped += result.zero_values_skipped
    # no unit value at all: an early exit could not have stopped sooner
    pos = state.first_unit if state.first_unit is not None else result.candidates
    tr.counters.unit_shares.append(pos / result.candidates)


def _post_density_table(tr, args, kwargs, result, state):
    from slnapprox import core, densities

    n_dim = result.family.n_dim
    # composite moduli are scanned prime by prime; q = 1 scans nothing
    for q in result.values:
        for p in core.prime_factorization(q):
            tr.counters.group_elements += densities.group_order_mod(p, n_dim)


def _post_delta_n(tr, args, kwargs, result, state):
    tr.counters.words_sampled += result.sample_size


def _post_build_graph(tr, args, kwargs, result, state):
    import numpy as np

    tr.counters.vertices += len(result.vertices)
    tr.counters.operator_nnz += int(np.count_nonzero(result.operator))
    tr.counters.operator_bytes += int(result.operator.nbytes)


def _post_xi(tr, args, kwargs, result, state):
    p = _arg(args, kwargs, 0, "p")
    ell = _arg(args, kwargs, 1, "ell")
    if ell > 0:
        tr.counters.xi_residues += p ** (4 * ell)


@dataclass(frozen=True)
class Hook:
    """One traced function: its span name and every name it is looked up by."""

    span: str
    targets: tuple[tuple[str, str], ...]  # (module, attribute path)
    post: Callable | None = None
    pre: Callable | None = None


HOOKS: tuple[Hook, ...] = (
    Hook(
        "enumeration.enumerate_points",
        (("slnapprox.enumeration", "enumerate_points"),
         ("slnapprox.engine", "enumerate_points")),
        post=_post_enumerate,
    ),
    Hook(
        "enumeration.write_jsonl",
        (("slnapprox.enumeration", "write_jsonl"),),
        post=_post_write_jsonl,
        pre=_pre_write_jsonl,
    ),
    Hook(
        "enumeration.read_jsonl_points",
        (("slnapprox.enumeration", "read_jsonl_points"),),
    ),
    Hook(
        "core.family_values",
        (("slnapprox.core", "PolynomialFamily.values"),),
        post=_post_values,
    ),
    Hook(
        "sieve.coprime_part",
        (("slnapprox.sieve", "coprime_part"), ("slnapprox.engine", "coprime_part")),
        post=_post_coprime_part,
    ),
    Hook(
        "sieve.factorize_full",
        (("slnapprox.sieve", "factorize_full"),),
        post=_post_factorize,
    ),
    Hook("sieve.run_sieve", (("slnapprox.sieve", "run_sieve"),)),
    Hook(
        "engine.find_witness",
        (("slnapprox.engine", "find_witness"),),
        post=_post_find_witness,
        pre=_pre_find_witness,
    ),
    Hook(
        "engine.counting_verification",
        (("slnapprox.engine", "counting_verification"),),
    ),
    Hook(
        "densities.density_table",
        (("slnapprox.densities", "density_table"),),
        post=_post_density_table,
    ),
    Hook("densities.delta_n", (("slnapprox.densities", "delta_n"),), post=_post_delta_n),
    Hook(
        "spectral.build_hecke_graph",
        (("slnapprox.spectral", "build_hecke_graph"),),
        post=_post_build_graph,
    ),
    Hook(
        "spectral.second_singular_value",
        (("slnapprox.spectral", "second_singular_value"),),
    ),
    Hook(
        "volumes.harish_chandra_xi",
        (("slnapprox.volumes", "harish_chandra_xi"),),
        post=_post_xi,
    ),
    Hook("volumes.growth_exponent", (("slnapprox.volumes", "growth_exponent"),)),
    Hook("cli.main", (("slnapprox.cli", "main"),)),
)


def _resolve(module: str, path: str):
    """(owner object, attribute name, current value) or None when absent."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    value = getattr(owner, attr, None)
    if not callable(value):
        return None
    return owner, attr, value


class Tracer:
    """Installs the hooks, records spans, and derives per-layer metrics."""

    def __init__(self):
        self.names = [h.span for h in HOOKS]
        self.missing: set[str] = set()
        self._saved: list[tuple[object, str, object]] = []
        self._stack: list[int] = []
        self.witness_frames: list[_WitnessFrame] = []
        self.reset()

    def reset(self) -> None:
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self.kinds = array("H")
        self.counters = PassCounters()

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        for kind, hook in enumerate(HOOKS):
            found = [_resolve(m, p) for m, p in hook.targets]
            if found[0] is None:
                # the defining name is gone: the layer is not measured
                self.missing.add(hook.span)
                continue
            wrapper = self._wrap(kind, hook, found[0][2])
            for target in found:
                if target is None:
                    continue
                owner, attr, _ = target
                self._saved.append((owner, attr, owner.__dict__[attr]))
                setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _wrap(self, kind: int, hook: Hook, fn):
        tracer = self
        stack = self._stack
        clock = time.perf_counter
        pre, post = hook.pre, hook.post
        is_witness = hook.span == "engine.find_witness"

        def traced(*args, **kwargs):
            state = pre(args, kwargs) if pre is not None else None
            if is_witness:
                tracer.witness_frames.append(state)
            idx = len(tracer.starts)
            tracer.parents.append(stack[-1] if stack else -1)
            tracer.kinds.append(kind)
            tracer.ends.append(0.0)
            stack.append(idx)
            tracer.starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.ends[idx] = clock()
                stack.pop()
                if is_witness:
                    tracer.witness_frames.pop()
            if post is not None:
                post(tracer, args, kwargs, result, state)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", hook.span)
        return traced

    # -- derivation ----------------------------------------------------------

    def span_times(self) -> tuple[dict[str, float], dict[str, float]]:
        """Total and self time per span name, over the recorded spans."""
        n = len(self.starts)
        child = [0.0] * n
        for i in range(n):
            par = self.parents[i]
            if par >= 0:
                child[par] += self.ends[i] - self.starts[i]
        total = dict.fromkeys(self.names, 0.0)
        own = dict.fromkeys(self.names, 0.0)
        for i in range(n):
            name = self.names[self.kinds[i]]
            dur = self.ends[i] - self.starts[i]
            total[name] += dur
            own[name] += dur - child[i]
        return total, own

    def pass_metrics(self) -> dict[str, float | int | None]:
        """Per-layer metrics of the spans and counters since the last reset."""
        total, own = self.span_times()
        c = self.counters
        out: dict[str, float | int | None] = {}
        for name, needs, value in (
            ("enumeration.enumerate_s", ["enumeration.enumerate_points"],
             lambda: total["enumeration.enumerate_points"]),
            ("enumeration.calls", ["enumeration.enumerate_points"], lambda: c.enum_calls),
            ("enumeration.points", ["enumeration.enumerate_points"], lambda: c.enum_points),
            ("enumeration.rows", ["enumeration.enumerate_points"], lambda: c.enum_rows),
            ("enumeration.hit_ratio", ["enumeration.enumerate_points"],
             lambda: _ratio(c.enum_points, c.enum_rows)),
            ("enumeration.write_jsonl_s", ["enumeration.write_jsonl"],
             lambda: total["enumeration.write_jsonl"]),
            ("enumeration.jsonl_bytes", ["enumeration.write_jsonl"], lambda: c.jsonl_bytes),
            ("enumeration.read_jsonl_s", ["enumeration.read_jsonl_points"],
             lambda: total["enumeration.read_jsonl_points"]),
            ("core.family_values_s", ["core.family_values"],
             lambda: total["core.family_values"]),
            ("core.family_values_calls", ["core.family_values"], lambda: c.values_calls),
            ("sieve.coprime_part_s", ["sieve.coprime_part"],
             lambda: total["sieve.coprime_part"]),
            ("sieve.coprime_part_calls", ["sieve.coprime_part"], lambda: c.coprime_calls),
            ("sieve.factorize_full_s", ["sieve.factorize_full"],
             lambda: total["sieve.factorize_full"]),
            ("sieve.factorize_incomplete", ["sieve.factorize_full"],
             lambda: c.factorize_incomplete),
            ("sieve.distinct_value_ratio", ["sieve.coprime_part"],
             lambda: _ratio(len(c.coprime_parts), c.coprime_calls)),
            ("sieve.run_sieve_s", ["sieve.run_sieve"], lambda: total["sieve.run_sieve"]),
            ("engine.find_witness_self_s", ["engine.find_witness"],
             lambda: own["engine.find_witness"]),
            ("engine.candidates", ["engine.find_witness"], lambda: c.candidates),
            ("engine.zero_values_skipped", ["engine.find_witness"], lambda: c.zeros_skipped),
            ("engine.first_unit_share",
             ["engine.find_witness", "core.family_values", "sieve.coprime_part"],
             lambda: statistics.fmean(c.unit_shares) if c.unit_shares else 0.0),
            ("engine.counting_verification_self_s", ["engine.counting_verification"],
             lambda: own["engine.counting_verification"]),
            ("densities.density_table_s", ["densities.density_table"],
             lambda: total["densities.density_table"]),
            ("densities.group_elements", ["densities.density_table"],
             lambda: c.group_elements),
            ("densities.delta_n_s", ["densities.delta_n"], lambda: total["densities.delta_n"]),
            ("densities.words_sampled", ["densities.delta_n"], lambda: c.words_sampled),
            ("spectral.build_s", ["spectral.build_hecke_graph"],
             lambda: total["spectral.build_hecke_graph"]),
            ("spectral.vertices", ["spectral.build_hecke_graph"], lambda: c.vertices),
            ("spectral.operator_nnz", ["spectral.build_hecke_graph"], lambda: c.operator_nnz),
            ("spectral.operator_bytes", ["spectral.build_hecke_graph"],
             lambda: c.operator_bytes),
            ("spectral.eigensolve_s", ["spectral.second_singular_value"],
             lambda: total["spectral.second_singular_value"]),
            ("volumes.xi_s", ["volumes.harish_chandra_xi"],
             lambda: total["volumes.harish_chandra_xi"]),
            ("volumes.xi_residues", ["volumes.harish_chandra_xi"], lambda: c.xi_residues),
            ("volumes.growth_s", ["volumes.growth_exponent"],
             lambda: total["volumes.growth_exponent"]),
            ("cli.self_s", ["cli.main"], lambda: own["cli.main"]),
        ):
            out[name] = None if self.missing.intersection(needs) else value()
        return out


def _ratio(num: int, den: int) -> float:
    """num / den, reading 0 when the layer did no work in this workload."""
    return num / den if den else 0.0
