"""The frozen value types: slotted, so a kept result carries no __dict__.

Every frozen dataclass in `cuq` is slotted except those with a
`cached_property`, which stores its value in the instance's __dict__
(`QubitModel`, `FitResult`).  A slotted instance pickles, deep-copies and
goes through `dataclasses.replace` as before, and stays frozen.
"""

import copy
import dataclasses
import importlib
import inspect
import pickle
import pkgutil
from functools import cached_property

import numpy as np
import pytest

import cuq
from cuq.analytic import asymptotic_state, cuq_clock, mixed_ellipse
from cuq.core import BlochState, QubitModel, density_from_bloch
from cuq.fit import (FitResult, estimate_r, fit_fourier_modes,
                     synthesize_dataset)
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
        density_from_bloch(BlochState([0.1, -0.2, 0.3])),
        data,
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


def test_every_frozen_type_without_a_cached_property_is_covered():
    slotted = {cls for cls in _frozen_dataclasses()
               if not any(isinstance(v, cached_property)
                          for v in vars(cls).values())}
    assert slotted == {type(x) for x in INSTANCES}
    assert _frozen_dataclasses() - slotted == {QubitModel, FitResult}


def _assert_same(got, want):
    assert type(got) is type(want)
    np.testing.assert_equal(dataclasses.astuple(got),
                            dataclasses.astuple(want))


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
