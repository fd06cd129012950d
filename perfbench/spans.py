"""Spans at the module boundaries of `vps`, recorded from outside the program.

`Tracer.install` replaces the public functions as `vps.cli`, `vps.measures`
and `vps.profiles` bind them (module attributes) with wrappers that record
one span per call, so every span sits where one module calls another.
Spans are kept in memory; `uninstall` restores the original functions.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import vps.cli
import vps.measures
import vps.profiles

# (module, attribute, span name).  A function bound in two modules gets one
# wrapper installed under both names, so each call is one span.
TARGETS = (
    (vps.cli, "read_profile_csv", "core.read_profile_csv"),
    (vps.cli, "spectral_radius", "profiles.spectral_radius"),
    (vps.profiles, "spectral_radius", "profiles.spectral_radius"),
    (vps.cli, "solve_curve", "mesolver.solve_curve"),
    (vps.measures, "derivative_s2", "mesolver.derivative_s2"),
    (vps.measures, "solve_at_zero", "mesolver.solve_at_zero"),
    (vps.cli, "cdf", "measures.cdf"),
    (vps.measures, "cdf", "measures.cdf"),
    (vps.cli, "grid_density", "measures.grid_density"),
    (vps.cli, "atom_at_zero", "measures.atom_at_zero"),
    (vps.cli, "density_lower_bound", "measures.density_lower_bound"),
    (vps.cli, "density_at_zero", "measures.density_at_zero"),
    (vps.cli, "sample_matrix", "montecarlo.sample_matrix"),
    (vps.cli, "spectrum", "montecarlo.spectrum"),
    (vps.cli, "kolmogorov_distance", "montecarlo.kolmogorov_distance"),
    (vps.cli, "write_eigenvalue_csv", "core.eig_csv_io"),
    (vps.cli, "read_eigenvalue_csv", "core.eig_csv_io"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    run: int = 0
    attrs: dict = field(default_factory=dict)


def _solve_curve_attrs(curve) -> dict:
    failed = set(curve.failed_indices)
    return {"points": len(curve.solutions),
            "n": curve.profile.n,
            # failed placeholders report max_iters without having run them
            "fp_iters": sum(sol.iterations for i, sol in enumerate(curve.solutions)
                            if i not in failed),
            "failed_points": len(failed)}


def _spectrum_attrs(sample) -> dict:
    return {"n": len(sample.eigenvalues)}


ATTRS = {"mesolver.solve_curve": _solve_curve_attrs,
         "montecarlo.spectrum": _spectrum_attrs}


class Tracer:
    """In-memory span recorder.  Each span records its name, start, end,
    the index of the span that was open when it started, and the run id."""

    def __init__(self, run=0):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self.run = run
        self._saved = []

    def begin(self, name) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, time.perf_counter(), parent=parent, run=self.run))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, index, **attrs) -> Span:
        span = self.spans[index]
        span.end = time.perf_counter()
        span.attrs.update(attrs)
        self._open.pop()
        return span

    def wrap(self, name, fn):
        attrs_of = ATTRS.get(name)

        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.end(index, raised=True)
                raise
            span = self.end(index)
            if attrs_of:
                span.attrs.update(attrs_of(result))
            return result

        return traced

    def install(self) -> None:
        wrappers = {}
        for module, attr, name in TARGETS:
            original = getattr(module, attr)
            if original not in wrappers:
                wrappers[original] = self.wrap(name, original)
            self._saved.append((module, attr, original))
            setattr(module, attr, wrappers[original])

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover
        (children never overlap: one thread, properly nested)."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own

    def to_json(self) -> list[dict]:
        return [{"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
                 "run": s.run, **s.attrs} for s in self.spans]
