"""The frozen value types: slotted, so a kept result carries no __dict__.

Every frozen dataclass in `cuq` is slotted, and every field is set by its
constructor.  A copy, a pickle and `dataclasses.replace` all go through the
constructor, so the value comes back equal, frozen and checked again, and
an array the original held read-only is read-only in the copy too.
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
from cuq.core import BlochState, QubitModel, density_from_bloch
from cuq.fit import estimate_r, fit_fourier_modes, synthesize_dataset
from cuq.fourier import anharmonicity, closed_form_spectrum
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
