"""Spans around calls into cuq's layers, recorded from outside the package.

`Tracer.install` replaces each public function listed in TARGETS at its
module attribute (for example `cuq.integrate.evolve`) with a wrapper that
records a span: name, start, end, parent span and whether it raised.  Calls
that reach a function through a module attribute nest as child spans, such as
the `evolve` calls inside `evolve_to_asymptote`.  Calls through a name
imported by value do not: `fit` imports `cuq_projections` and
`anharmonicity` by name and `cli` imports the `fit` functions, so that work
stays in the caller's span (BY_NAME_NOTE, which the run record carries).

Spans live in flat arrays (a span's id is its index) and are written once,
by `save`, when the run ends.
"""

from __future__ import annotations

import functools
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

from cuq import analytic, cli, fit, fourier, integrate, meson

BY_NAME_NOTE = ("calls through names imported by value are not spans: "
                "fit.synthesize_dataset keeps its cuq_projections calls, "
                "fit.estimate_r its anharmonicity calls, and cli.main its "
                "load_dataset, fit_fourier_modes and estimate_r calls")


def _count_evolve(counts, args, out):
    stats = out.controller_stats
    counts["integrate.evolve.steps_accepted"] += stats["n_accepted"]
    counts["integrate.evolve.steps_rejected"] += stats["n_rejected"]
    counts["core.vector_field.calls"] += stats["n_fev"]


def _count_interpolate(counts, args, out):
    counts["integrate.interpolate.points"] += int(np.size(args[1]))


def _count_asymptote(counts, args, out):
    counts["integrate.evolve_to_asymptote.nonconvergent"] += (
        out is integrate.NON_CONVERGENT)


def _count_fit(counts, args, out):
    counts["fit.fit_fourier_modes.points"] += len(args[0])


# (span prefix, owner, attribute, counter)
TARGETS = [
    ("cli", cli, "main", None),
    ("integrate", integrate, "evolve", _count_evolve),
    ("integrate", integrate, "evolve_to_asymptote", _count_asymptote),
    ("integrate", integrate.Trajectory, "interpolate", _count_interpolate),
    ("analytic", analytic, "cuq_projections", None),
    ("analytic", analytic, "cuq_clock", None),
    ("analytic", analytic, "asymptotic_state", None),
    ("fourier", fourier, "quadrature_spectrum", None),
    ("fourier", fourier, "anharmonicity", None),
    ("fourier", fourier, "r_from_anharmonicity", None),
    ("fourier", fourier, "closed_form_cn", None),
    ("fourier", fourier, "closed_form_d0", None),
    ("meson", meson, "observables_from_bloch", None),
    ("meson", meson, "bloch_from_observables", None),
    ("meson", meson, "catalogue_to_csv", None),
    ("meson", meson, "catalogue_to_json", None),
    ("fit", fit, "synthesize_dataset", None),
    ("fit", fit, "fit_fourier_modes", _count_fit),
    ("fit", fit, "estimate_r", None),
]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_of = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.raised = array("b")
        self.counts: dict[str, float] = defaultdict(float)
        self._open: list[int] = []
        self._patched: list[tuple] = []

    def _wrap(self, name: str, fn, count):
        name_id = len(self.names)
        self.names.append(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(self.start)
            self.name_of.append(name_id)
            self.parent.append(self._open[-1] if self._open else -1)
            self.raised.append(0)
            self.end.append(0.0)
            self._open.append(span)
            self.start.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self.raised[span] = 1
                raise
            finally:
                self.end[span] = perf_counter()
                self._open.pop()
            if count is not None:
                count(self.counts, args, out)
            return out

        return traced

    def install(self) -> None:
        for prefix, owner, attr, count in TARGETS:
            fn = getattr(owner, attr)
            self._patched.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(f"{prefix}.{attr}", fn, count))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched.clear()

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names),
                            name=np.asarray(self.name_of),
                            parent=np.asarray(self.parent),
                            start=np.asarray(self.start),
                            end=np.asarray(self.end),
                            raised=np.asarray(self.raised))

    def layer_metrics(self) -> dict[str, float]:
        """Calls, busy and self time per span name, plus the hook counts."""
        name = np.asarray(self.name_of, dtype=int)
        parent = np.asarray(self.parent, dtype=int)
        dur = np.asarray(self.end) - np.asarray(self.start)
        child_time = np.zeros_like(dur)
        np.add.at(child_time, parent[parent >= 0], dur[parent >= 0])
        raised = np.asarray(self.raised, dtype=bool)
        out: dict[str, float] = dict(self.counts)
        for i, n in enumerate(self.names):
            mine = name == i
            out[f"{n}.calls"] = int(mine.sum())
            out[f"{n}.busy_s"] = float(dur[mine].sum())
            out[f"{n}.self_s"] = float((dur - child_time)[mine].sum())
            out[f"{n}.raised"] = int(raised[mine].sum())
        is_analytic = np.array([n.startswith("analytic.") for n in self.names],
                               dtype=bool)
        if len(name):
            top = is_analytic[name] & ~((parent >= 0)
                                        & is_analytic[name[np.maximum(parent, 0)]])
            out["analytic.busy_s"] = float(dur[top].sum())
        else:
            out["analytic.busy_s"] = 0.0
        return out
