"""WorkflowParams validation tests."""

from dataclasses import fields

import pytest

from repro.workflow import WorkflowParams
from repro.workflow.config import _TYPE_CHECKS


class TestWorkflowParams:
    def test_defaults_valid(self):
        p = WorkflowParams()
        assert p.years == [2030]
        assert p.n_days == 60

    def test_from_dict(self):
        p = WorkflowParams.from_dict({"years": [2031, 2032], "n_days": 10})
        assert p.years == [2031, 2032]
        assert p.n_days == 10

    def test_from_dict_coerces_years(self):
        p = WorkflowParams.from_dict({"years": ["2031"]})
        assert p.years == [2031]

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown workflow parameters"):
            WorkflowParams.from_dict({"bogus": 1})

    def test_empty_years_rejected(self):
        with pytest.raises(ValueError):
            WorkflowParams(years=[])

    def test_n_days_bounds(self):
        with pytest.raises(ValueError):
            WorkflowParams(n_days=0)
        with pytest.raises(ValueError):
            WorkflowParams(n_days=366)

    def test_min_length_vs_days(self):
        with pytest.raises(ValueError):
            WorkflowParams(n_days=5, min_length_days=6)

    def test_target_grid_patch_divisibility(self):
        with pytest.raises(ValueError):
            WorkflowParams(tc_target_grid=(30, 64))

    def test_from_dict_accepts_a_single_year(self):
        assert WorkflowParams.from_dict({"years": 2030}).years == [2030]

    @pytest.mark.parametrize("params, field", [
        ({"n_days": "8"}, "n_days"),
        ({"with_ml": "no"}, "with_ml"),
        ({"n_days": 8.5}, "n_days"),
        ({"n_days": True}, "n_days"),
        ({"years": [2030, 20.5]}, "years"),
        ({"tc_target_grid": [32]}, "tc_target_grid"),
        ({"scenario": 585}, "scenario"),
    ])
    def test_from_dict_rejects_wrong_types(self, params, field):
        with pytest.raises(ValueError, match=f"'{field}'"):
            WorkflowParams.from_dict(params)

    def test_every_field_type_has_a_check(self):
        assert {f.type for f in fields(WorkflowParams)} <= set(_TYPE_CHECKS)

    def test_from_dict_float_fields_accept_ints(self):
        p = WorkflowParams.from_dict({"pace_seconds": 0, "threshold_k": 5})
        assert p.pace_seconds == 0.0 and isinstance(p.pace_seconds, float)
        assert p.threshold_k == 5.0 and isinstance(p.threshold_k, float)
