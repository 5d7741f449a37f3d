"""Per-layer tracing from outside the library.

The tracer wraps the public functions of each ``tametransfer`` layer and
counts calls and self time (a call's own duration minus the time of the
wrapped calls nested inside it).  Nothing under ``src/`` is changed: the
modules bind each other's functions with ``from .x import f``, so a wrapper
is installed under every ``tametransfer.*`` namespace that holds the
original function, otherwise calls between layers would go uncounted.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# layer (module name) -> public functions wrapped in that layer
WRAPPED: dict[str, tuple[str, ...]] = {
    "tower": ("field_level", "derive_tower"),
    "numth": ("is_prime", "factorize", "prime_factors", "divisors"),
    "characters": ("orbit_of", "enumerate_orbits", "ell_regular_part", "norm_inflate", "is_norm_inflated"),
    "linking": ("linked_partition", "build_link_chain", "verify_link_chain"),
    "regularize": ("zsigmondy_prime", "cyclotomic_value", "regularize", "descend_transfer", "verify_certificate"),
    "tame": ("rectifier", "apply_transfer", "transfer_via_descent", "transfer_pair", "pair_to_orbit", "orbit_to_pair"),
    "green": ("green_trace",),
    "jsonio": ("char_to_json", "orbit_to_json", "certificate_to_json", "lift_to_json", "cyclotomic_to_json"),
}

# counters that must repeat exactly for a fixed seed
EXTRA_COUNTERS = ("numth.factorize.input_bits", "regularize.zsigmondy_prime.cold_calls")


def metric_names() -> list[str]:
    names = []
    for layer, fns in WRAPPED.items():
        for fn in fns:
            names += [f"{layer}.{fn}.calls", f"{layer}.{fn}.self_s"]
    return names + list(EXTRA_COUNTERS)


class Tracer:
    """Counts and self times of the wrapped functions while installed."""

    def __init__(self) -> None:
        self.counts: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self._child_time: list[float] = []  # one accumulator per open wrapped call
        self._zsig_stack: list[list] = []  # [r, saw_factorize_above_r] per open zsigmondy_prime
        self._installed: list[tuple[object, str, object]] = []

    # -- counters -------------------------------------------------------

    def snapshot(self) -> dict[str, int]:
        return dict(self.counts)

    def restore(self, snap: dict[str, int]) -> None:
        """Drop the counts of an operation cut at its deadline.

        Where a cut falls inside an operation depends on timing, so counting
        its partial work would make the counters differ between runs.  Self
        times keep the time, which was spent either way.
        """
        self.counts = defaultdict(int, snap)

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for layer, fns in WRAPPED.items():
            for fn in fns:
                key = f"{layer}.{fn}"
                out[f"{key}.calls"] = self.counts.get(f"{key}.calls", 0)
                out[f"{key}.self_s"] = self.self_s.get(key, 0.0)
        for key in EXTRA_COUNTERS:
            out[key] = self.counts.get(key, 0)
        return out

    # -- wrapping -------------------------------------------------------

    def _wrap(self, key: str, fn):
        tracer, child_time, self_s = self, self._child_time, self.self_s
        calls_key = key + ".calls"
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            child_time.append(0.0)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf() - start
                self_s[key] += elapsed - child_time.pop()
                tracer.counts[calls_key] += 1
                if child_time:
                    child_time[-1] += elapsed

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def _wrap_factorize(self, fn):
        inner = self._wrap("numth.factorize", fn)
        zsig = self._zsig_stack

        def factorize(n, *args, **kwargs):
            self.counts["numth.factorize.input_bits"] += int(n).bit_length()
            if zsig and n > zsig[-1][0]:
                zsig[-1][1] = True
            return inner(n, *args, **kwargs)

        factorize.__wrapped__ = fn
        return factorize

    def _wrap_zsigmondy(self, fn):
        inner = self._wrap("regularize.zsigmondy_prime", fn)
        zsig = self._zsig_stack

        def zsigmondy_prime(b, r, *args, **kwargs):
            zsig.append([r, False])
            try:
                return inner(b, r, *args, **kwargs)
            finally:
                _, cold = zsig.pop()
                if cold:
                    self.counts["regularize.zsigmondy_prime.cold_calls"] += 1

        zsigmondy_prime.__wrapped__ = fn
        return zsigmondy_prime

    def install(self) -> None:
        namespaces = [m for name, m in list(sys.modules.items())
                      if m is not None and (name == "tametransfer" or name.startswith("tametransfer."))]
        for layer, fns in WRAPPED.items():
            home = sys.modules[f"tametransfer.{layer}"]
            for fn_name in fns:
                original = getattr(home, fn_name)
                if fn_name == "factorize":
                    wrapper = self._wrap_factorize(original)
                elif fn_name == "zsigmondy_prime":
                    wrapper = self._wrap_zsigmondy(original)
                else:
                    wrapper = self._wrap(f"{layer}.{fn_name}", original)
                for ns in namespaces:
                    if ns.__dict__.get(fn_name) is original:
                        setattr(ns, fn_name, wrapper)
                        self._installed.append((ns, fn_name, original))

    def uninstall(self) -> None:
        for ns, fn_name, original in reversed(self._installed):
            setattr(ns, fn_name, original)
        self._installed.clear()

    def flagged(self, wrapper_cost_s: float, ratio: float = 10.0) -> list[str]:
        """Functions whose mean self time per call is within ``ratio`` times
        the wrapper's own cost, so their self_s is mostly tracing overhead."""
        out = []
        for key, total in sorted(self.self_s.items()):
            calls = self.counts.get(key + ".calls", 0)
            if calls and total / calls < ratio * wrapper_cost_s:
                out.append(key)
        return out


def wrapper_cost_s(samples: int = 20000) -> float:
    """Mean added cost of one wrapped call, measured on a no-op function."""

    def noop():
        return None

    tracer = Tracer()
    wrapped = tracer._wrap("calibration.noop", noop)
    perf = time.perf_counter
    best = float("inf")
    for _ in range(5):
        start = perf()
        for _ in range(samples):
            noop()
        bare = perf() - start
        start = perf()
        for _ in range(samples):
            wrapped()
        best = min(best, (perf() - start - bare) / samples)
    return max(best, 0.0)
