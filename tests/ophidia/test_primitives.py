"""Tests for the oph_* primitive expression language."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.ophidia import PrimitiveError
from repro.ophidia.primitives import evaluate_ast, parse_primitive


def evaluate_primitive(query, measure):
    """Parse and evaluate *query*, as an operator does per fragment."""
    return evaluate_ast(parse_primitive(query), measure)


class TestPredicate:
    def test_paper_listing1_predicate(self):
        """The exact expression from the paper's Listing 1."""
        measure = np.array([-2, 0, 3, 7], dtype=np.int32)
        out = evaluate_primitive(
            "oph_predicate('OPH_INT','OPH_INT',measure,'x','>0','1','0')", measure
        )
        np.testing.assert_array_equal(out, [0, 0, 1, 1])
        assert out.dtype == np.int32

    def test_predicate_with_x_branches(self):
        measure = np.array([1.0, 5.0, 9.0])
        out = evaluate_primitive(
            "oph_predicate('OPH_DOUBLE','OPH_DOUBLE',measure,'x','>=5','x','0')",
            measure,
        )
        np.testing.assert_array_equal(out, [0.0, 5.0, 9.0])

    def test_predicate_nan_branch(self):
        measure = np.array([1.0, -1.0])
        out = evaluate_primitive(
            "oph_predicate('OPH_DOUBLE','OPH_DOUBLE',measure,'x','>0','x','NAN')",
            measure,
        )
        assert out[0] == 1.0
        assert np.isnan(out[1])

    def test_condition_with_explicit_x(self):
        measure = np.array([3.0, 4.0])
        out = evaluate_primitive(
            "oph_predicate('OPH_FLOAT','OPH_INT',measure,'x','x>=4','1','0')", measure
        )
        np.testing.assert_array_equal(out, [0, 1])

    def test_all_comparators(self):
        measure = np.array([1.0, 2.0, 3.0])
        cases = {
            "'>2'": [0, 0, 1],
            "'<2'": [1, 0, 0],
            "'>=2'": [0, 1, 1],
            "'<=2'": [1, 1, 0],
            "'==2'": [0, 1, 0],
            "'!=2'": [1, 0, 1],
        }
        for cond, expected in cases.items():
            out = evaluate_primitive(
                f"oph_predicate('OPH_DOUBLE','OPH_INT',measure,'x',{cond},'1','0')",
                measure,
            )
            np.testing.assert_array_equal(out, expected, err_msg=cond)

    def test_bad_condition_rejected(self):
        with pytest.raises(PrimitiveError):
            evaluate_primitive(
                "oph_predicate('OPH_INT','OPH_INT',measure,'x','~5','1','0')",
                np.zeros(2),
            )

    def test_bad_variable_rejected(self):
        with pytest.raises(PrimitiveError):
            evaluate_primitive(
                "oph_predicate('OPH_INT','OPH_INT',measure,'y','>0','1','0')",
                np.zeros(2),
            )


class TestScalarArithmetic:
    def test_sum_scalar(self):
        out = evaluate_primitive(
            "oph_sum_scalar('OPH_DOUBLE','OPH_DOUBLE',measure,5)", np.arange(3.0)
        )
        np.testing.assert_array_equal(out, [5.0, 6.0, 7.0])

    def test_sub_mul_div(self):
        m = np.array([2.0, 4.0])
        np.testing.assert_array_equal(
            evaluate_primitive("oph_sub_scalar('OPH_DOUBLE','OPH_DOUBLE',measure,1)", m),
            [1.0, 3.0],
        )
        np.testing.assert_array_equal(
            evaluate_primitive("oph_mul_scalar('OPH_DOUBLE','OPH_DOUBLE',measure,3)", m),
            [6.0, 12.0],
        )
        np.testing.assert_array_equal(
            evaluate_primitive("oph_div_scalar('OPH_DOUBLE','OPH_DOUBLE',measure,2)", m),
            [1.0, 2.0],
        )

    def test_div_by_zero_rejected(self):
        with pytest.raises(PrimitiveError):
            evaluate_primitive(
                "oph_div_scalar('OPH_DOUBLE','OPH_DOUBLE',measure,0)", np.ones(2)
            )

    def test_output_type_cast(self):
        out = evaluate_primitive(
            "oph_sum_scalar('OPH_DOUBLE','OPH_INT',measure,0.7)", np.array([1.0])
        )
        assert out.dtype == np.int32

    def test_scalar_as_string(self):
        out = evaluate_primitive(
            "oph_mul_scalar('OPH_DOUBLE','OPH_DOUBLE',measure,'2.5')", np.array([2.0])
        )
        np.testing.assert_array_equal(out, [5.0])


class TestMathAndCast:
    def test_math_functions(self):
        m = np.array([4.0])
        assert evaluate_primitive(
            "oph_math('OPH_DOUBLE','OPH_DOUBLE',measure,'OPH_MATH_SQRT')", m
        )[0] == pytest.approx(2.0)
        assert evaluate_primitive(
            "oph_math('OPH_DOUBLE','OPH_DOUBLE',measure,'OPH_MATH_ABS')", -m
        )[0] == pytest.approx(4.0)

    def test_unknown_math_rejected(self):
        with pytest.raises(PrimitiveError):
            evaluate_primitive(
                "oph_math('OPH_DOUBLE','OPH_DOUBLE',measure,'OPH_MATH_NOPE')",
                np.ones(1),
            )

    def test_cast(self):
        out = evaluate_primitive(
            "oph_cast('OPH_DOUBLE','OPH_FLOAT',measure)", np.array([1.5], np.float64)
        )
        assert out.dtype == np.float32


class TestNestingAndErrors:
    def test_nested_calls(self):
        """Scale to Celsius then threshold: a realistic composite."""
        kelvin = np.array([270.0, 280.0, 300.0])
        out = evaluate_primitive(
            "oph_predicate('OPH_DOUBLE','OPH_INT',"
            "oph_sub_scalar('OPH_DOUBLE','OPH_DOUBLE',measure,273.15),"
            "'x','>0','1','0')",
            kelvin,
        )
        np.testing.assert_array_equal(out, [0, 1, 1])

    def test_unknown_primitive(self):
        with pytest.raises(PrimitiveError):
            evaluate_primitive("oph_nope('OPH_INT','OPH_INT',measure,1)", np.ones(1))

    def test_unknown_type(self):
        with pytest.raises(PrimitiveError):
            evaluate_primitive(
                "oph_sum_scalar('OPH_TEXT','OPH_INT',measure,1)", np.ones(1)
            )

    def test_syntax_errors(self):
        for bad in (
            "oph_sum_scalar('OPH_INT','OPH_INT',measure",   # unbalanced
            "measure",                                       # not a call
            "oph_sum_scalar('OPH_INT','OPH_INT',measure,1) extra",
            "oph_predicate('OPH_INT','OPH_INT',measure,'x','>0','1')",  # arity
            "@bad@",
        ):
            with pytest.raises(PrimitiveError):
                evaluate_primitive(bad, np.ones(2))

    def test_scalar_where_measure_expected(self):
        with pytest.raises(PrimitiveError):
            evaluate_primitive("oph_sum_scalar('OPH_INT','OPH_INT',5,1)", np.ones(1))

    @given(
        hnp.arrays(
            dtype=np.float64, shape=hnp.array_shapes(max_dims=3, max_side=6),
            elements=st.floats(-1e3, 1e3),
        ),
        st.floats(-10, 10),
    )
    def test_predicate_matches_numpy_where(self, data, threshold):
        out = evaluate_primitive(
            f"oph_predicate('OPH_DOUBLE','OPH_INT',measure,'x','>{threshold}','1','0')",
            data,
        )
        np.testing.assert_array_equal(out, (data > threshold).astype(np.int32))

    @given(
        hnp.arrays(dtype=np.float64, shape=st.integers(0, 20),
                   elements=st.floats(-1e3, 1e3)),
        st.floats(-5, 5), st.floats(-5, 5),
    )
    def test_scalar_ops_compose(self, data, a, b):
        """(x + a) - a == x and (x * 1) == x style identities."""
        out = evaluate_primitive(
            "oph_sub_scalar('OPH_DOUBLE','OPH_DOUBLE',"
            f"oph_sum_scalar('OPH_DOUBLE','OPH_DOUBLE',measure,{a}),{a})",
            data,
        )
        np.testing.assert_allclose(out, data, atol=1e-9)


class TestASTCache:
    def test_repeated_queries_hit_the_cache(self, monkeypatch):
        from repro.ophidia import parse_primitive
        from repro.ophidia import primitives

        parses = []
        real_parse = primitives._parse_uncached
        monkeypatch.setattr(primitives, "_parse_uncached",
                            lambda q: parses.append(q) or real_parse(q))
        # A query no other test parses, so its first parse is a miss.
        query = "oph_predicate('OPH_INT','OPH_INT',measure,'x','>4242','1','0')"
        first = parse_primitive(query)
        assert parses == [query]
        for _ in range(5):
            assert parse_primitive(query) is first
        assert parses == [query]

    def test_cached_evaluation_matches_uncached(self):
        measure = np.array([1.0, -2.0, 3.0])
        query = "oph_mul_scalar('OPH_DOUBLE','OPH_DOUBLE',measure,2)"
        cold = evaluate_primitive(query, measure)
        warm = evaluate_primitive(query, measure)  # AST now cached
        np.testing.assert_array_equal(cold, warm)

    def test_cache_is_bounded_lru(self):
        from repro.ophidia import parse_primitive
        from repro.ophidia.primitives import _ast_cache

        for k in range(_ast_cache.maxsize + 10):
            parse_primitive(
                f"oph_sum_scalar('OPH_DOUBLE','OPH_DOUBLE',measure,{k})"
            )
        assert len(_ast_cache._entries) == _ast_cache.maxsize

    def test_parallel_parsing_is_consistent(self):
        from concurrent.futures import ThreadPoolExecutor

        from repro.ophidia import parse_primitive

        query = "oph_predicate('OPH_INT','OPH_INT',measure,'x','>=6','x','0')"
        with ThreadPoolExecutor(max_workers=8) as pool:
            asts = list(pool.map(lambda _: parse_primitive(query), range(64)))
        assert all(a == asts[0] for a in asts)
