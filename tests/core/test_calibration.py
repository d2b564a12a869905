"""Calibration-robustness tests.

The reproduction's claim is that the paper's qualitative conclusions
are functions of *operation counts*, not of the calibration constants.
These tests perturb the constants and check the directions survive.
"""

import pytest

from repro.core.calibration import perturbed
from repro.core.powertest import build_sap_system
from repro.r3.appserver import R3Version
from repro.reports import native30, open30
from repro.sim.params import SimParams
from tests.conftest import SF


class TestPerturbationHelper:
    def test_uniform_scaling(self):
        params = perturbed(2.0)
        base = SimParams()
        assert params.roundtrip_s == base.roundtrip_s * 2
        assert params.seq_read_s == base.seq_read_s * 2

    def test_single_field(self):
        params = perturbed(3.0, "abap_row_s")
        base = SimParams()
        assert params.abap_row_s == base.abap_row_s * 3
        assert params.roundtrip_s == base.roundtrip_s

    def test_unknown_field(self):
        with pytest.raises(ValueError):
            perturbed(2.0, "page_size_bytes")


class TestUniformScalingPreservesRatios:
    def test_pure_clock_change_scales_everything(self, tpcd_data):
        def measure(params):
            r3 = build_sap_system(tpcd_data, R3Version.V30, params)
            suite = native30.make_queries(SF)
            span = r3.measure()
            suite[6](r3)
            return span.stop()

        base = measure(SimParams())
        doubled = measure(perturbed(2.0))
        assert doubled == pytest.approx(2 * base, rel=1e-6)


class TestDirectionsSurvivePerturbation:
    @pytest.mark.parametrize("field,factor", [
        ("roundtrip_s", 2.0),
        ("roundtrip_s", 0.5),
        ("abap_row_s", 2.0),
        ("random_read_s", 0.5),
    ])
    def test_open_grouping_penalty_robust(self, tpcd_data, field, factor):
        """Q1 (complex aggregation) must stay cheaper when pushed down
        (native) than when grouped in ABAP over shipped rows (open),
        for any reasonable perturbation of a single constant."""
        params = perturbed(factor, field)
        r3 = build_sap_system(tpcd_data, R3Version.V30, params)
        native_suite = native30.make_queries(SF)
        open_suite = open30.make_queries(SF)
        span = r3.measure()
        native_suite[1](r3)
        t_native = span.stop()
        span = r3.measure()
        open_suite[1](r3)
        t_open = span.stop()
        assert t_open > t_native
