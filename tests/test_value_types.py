"""The frozen value types: slotted, so a kept result carries no __dict__.

Every frozen dataclass in `cuq` is slotted, and every field is set by its
constructor.  A copy, a pickle and `dataclasses.replace` all go through the
constructor, so the value comes back equal, frozen and checked again, and
an array the original held read-only is read-only in the copy too.  Each
array a value holds is its own read-only copy; returned arrays are writable.
"""

import copy
import dataclasses
import importlib
import inspect
import pickle
import pkgutil

import numpy as np
import pytest

import cuq
from cuq.analytic import asymptotic_state, cuq_clock, mixed_ellipse
from cuq.cli import _parse_b0
from cuq.core import (BlochState, DensityMatrix, QubitModel, bloch_derivative,
                      density_from_bloch)
from cuq.fit import (AsymmetryDataset, design_matrix, estimate_r,
                     fit_fourier_modes, synthesize_dataset)
from cuq.fourier import (FourierSpectrum, SeriesKind, anharmonicity,
                         closed_form_spectrum)
from cuq.integrate import evolve_to_asymptote, propagate
from cuq.meson import (BlochParameters, bloch_from_observables, catalogue,
                       observables_from_bloch)


def _instances():
    data = synthesize_dataset(0.3, 1.0, 40, 12.0, 1e-3, 1)
    fit = fit_fourier_modes(data, 3)
    observables = observables_from_bloch(BlochParameters(0.85, 60.0, 1.0))
    return [
        cuq_clock(0.85),
        asymptotic_state(QubitModel.from_angle(2.0, 37.0, degrees=True)),
        mixed_ellipse(0.5),
        BlochState([0.1, -0.2, 0.3]),
        QubitModel.from_angle(0.85, 60.0, degrees=True),
        density_from_bloch(BlochState([0.1, -0.2, 0.3])),
        data,
        fit,
        estimate_r(fit),
        fit.spectrum(),
        anharmonicity(closed_form_spectrum(0.5, 4), 1),
        observables,
        BlochParameters(0.85, 60.0, 1.0),
        bloch_from_observables(observables),
        catalogue()[0],
    ]


INSTANCES = _instances()


def _frozen_dataclasses():
    found = set()
    for info in pkgutil.iter_modules(cuq.__path__):
        module = importlib.import_module(f"cuq.{info.name}")
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if (cls.__module__ == module.__name__
                    and dataclasses.is_dataclass(cls)
                    and cls.__dataclass_params__.frozen):
                found.add(cls)
    return found


def test_every_frozen_dataclass_is_slotted_and_covered():
    frozen = _frozen_dataclasses()
    assert len(frozen) == 15
    assert all("__slots__" in vars(cls) for cls in frozen)
    assert frozen == {type(x) for x in INSTANCES}


# (value, name) for every field of INSTANCES that holds an array
ARRAY_FIELDS = [(x, f.name) for x in INSTANCES for f in dataclasses.fields(x)
                if isinstance(getattr(x, f.name), np.ndarray)]


def test_every_array_field_holds_an_array_in_some_instance():
    annotated = {(cls, f.name) for cls in _frozen_dataclasses()
                 for f in dataclasses.fields(cls) if "ndarray" in str(f.type)}
    assert {(type(x), name) for x, name in ARRAY_FIELDS} == annotated
    assert len(ARRAY_FIELDS) == 13


@pytest.mark.parametrize("value, name", ARRAY_FIELDS,
                         ids=[f"{type(x).__name__}.{name}"
                              for x, name in ARRAY_FIELDS])
def test_owns_a_read_only_copy(value, name):
    held = getattr(value, name)
    assert not held.flags.writeable
    caller = held.copy()
    rebuilt = dataclasses.replace(value, **{name: caller})
    caller.fill(7.0)
    np.testing.assert_array_equal(getattr(rebuilt, name), held)
    assert not getattr(rebuilt, name).flags.writeable


# (value, name) for every field of INSTANCES annotated `float`
FLOAT_FIELDS = [(x, f.name) for x in INSTANCES for f in dataclasses.fields(x)
                if f.type == "float"]


@pytest.mark.parametrize("value, name", FLOAT_FIELDS,
                         ids=[f"{type(x).__name__}.{name}"
                              for x, name in FLOAT_FIELDS])
def test_float_field_holds_a_python_float(value, name):
    # np.float64 is a float subclass; a held one is numpy scalar arithmetic
    # for every reader
    assert type(getattr(value, name)) is float


def test_returned_arrays_stay_writable():
    m = QubitModel.from_angle(2.0, 37.0, degrees=True)
    state = BlochState([0.1, 0.2, 0.3])
    aligned = QubitModel.from_angle(0.95, 180.0, degrees=True)
    data = synthesize_dataset(0.3, 1.0, 40, 12.0, 1e-3, 1)
    for a in (propagate(m, state.b, [0.0, 1.0]), bloch_derivative(state, m),
              density_from_bloch(state).bloch_vector,
              evolve_to_asymptote(m, state.b),
              # the repelling fixed point: the start itself comes back
              evolve_to_asymptote(aligned, aligned.e),
              design_matrix(data.t, data.omega, 2)):
        assert a.flags.writeable


_MODEL = QubitModel.from_angle(0.5, 90.0, degrees=True)
_SERIES = dict(t=[1.0, 2.0], delta=[0.0, 0.0], sigma=[1.0, 1.0], omega=1.0)


@pytest.mark.parametrize("call, exc, match", [
    (lambda: AsymmetryDataset(**_SERIES | {"t": [1.0, 2.0, 3.0]}),
     ValueError, "equal-length 1-D"),
    (lambda: AsymmetryDataset(**_SERIES | {"t": [2.0, 1.0]}),
     ValueError, "strictly increasing"),
    (lambda: AsymmetryDataset(**_SERIES | {"delta": [0.0, np.nan]}),
     ValueError, "must be finite"),
    (lambda: AsymmetryDataset(**_SERIES | {"sigma": [1.0, 0.0]}),
     ValueError, "every sigma must be positive"),
    (lambda: _parse_b0("0.1,0.2", _MODEL), ValueError, "three components"),
    (lambda: _parse_b0("0.1,x,0.2", _MODEL), ValueError,
     r"--b0 must be one of .* or 'x,y,z', got '0.1,x,0.2'"),
    (lambda: QubitModel([2.0, 0.0, 0.0], [0.0, 1.0, 0.0], 0.5), ValueError,
     "e must be a unit vector"),
    (lambda: DensityMatrix(np.eye(3) / 3.0), ValueError, "must be 2x2"),
    (lambda: DensityMatrix(np.eye(2)), ValueError, "unit trace"),
    (lambda: FourierSpectrum(0.0, [0.5, 0.25], SeriesKind.EVEN,
                             coeff_errs=[0.1]),
     ValueError, "errors must match coefficients"),
], ids=["dataset-shape", "dataset-order", "dataset-finite", "dataset-sigma",
        "b0-two-components", "b0-not-a-number", "model-e-not-unit",
        "density-not-2x2", "density-trace", "spectrum-errs-shape"])
def test_rejects_input_it_cannot_hold(call, exc, match):
    with pytest.raises(exc, match=match):
        call()


def _assert_same(got, want):
    assert type(got) is type(want)
    np.testing.assert_equal(dataclasses.astuple(got),
                            dataclasses.astuple(want))
    for f in dataclasses.fields(want):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, np.ndarray):
            assert a.flags.writeable == b.flags.writeable, f.name


@pytest.mark.parametrize("value", INSTANCES,
                         ids=[type(x).__name__ for x in INSTANCES])
class TestSlotted:
    def test_has_no_instance_dict(self, value):
        assert not hasattr(value, "__dict__")

    def test_pickle_round_trip(self, value):
        _assert_same(pickle.loads(pickle.dumps(value)), value)

    def test_deepcopy_round_trip(self, value):
        _assert_same(copy.deepcopy(value), value)

    def test_replace_round_trip(self, value):
        _assert_same(dataclasses.replace(value), value)

    def test_stays_frozen(self, value):
        name = dataclasses.fields(value)[0].name
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, name, getattr(value, name))


@pytest.mark.parametrize("rebuild", [lambda x: pickle.loads(pickle.dumps(x)),
                                     copy.deepcopy, copy.copy],
                         ids=["pickle", "deepcopy", "copy"])
def test_a_tampered_state_fails_its_check_when_rebuilt(rebuild):
    state = BlochState([0.6, 0.0, 0.8])
    object.__setattr__(state, "b", np.array([2.0, 0.0, 0.0]))
    with pytest.raises(ValueError, match=r"\|b\| must be at most"):
        rebuild(state)
