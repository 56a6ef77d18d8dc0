"""Fuzz tests: hostile inputs raise typed errors, never crash.

Parsers and binary readers are the crash surface of any data system;
these properties pin down that every failure mode is a documented
exception type (``RNCFormatError``, ``YAMLError``, ``PrimitiveError``)
rather than an arbitrary traceback.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hpcwaas import YAMLError, parse_yaml
from repro.netcdf import Dataset, read_dataset, write_dataset
from repro.netcdf.io import MAGIC, RNCFormatError
from repro.ophidia import PrimitiveError, parse_primitive
from repro.ophidia.primitives import evaluate_ast


class TestRNCFuzz:
    @given(st.binary(max_size=512))
    @settings(max_examples=120, deadline=None)
    def test_random_bytes_never_crash_reader(self, tmp_path_factory, payload):
        path = tmp_path_factory.mktemp("fuzz") / "f.rnc"
        path.write_bytes(payload)
        try:
            read_dataset(path)
        except (RNCFormatError, KeyError):
            pass  # the documented failure modes

    @given(st.binary(max_size=256), st.integers(0, 400))
    @settings(max_examples=80, deadline=None)
    def test_corrupted_valid_file(self, tmp_path_factory, junk, cut):
        """Truncating/garbling a valid file must fail loudly, not return
        silently wrong data structures."""
        path = tmp_path_factory.mktemp("fuzz") / "v.rnc"
        ds = Dataset({"k": 1})
        ds.create_variable("x", np.arange(20.0), ("n",))
        write_dataset(ds, path)
        data = path.read_bytes()
        mutated = data[: cut % len(data)] + junk
        path.write_bytes(mutated)
        try:
            back = read_dataset(path)
        except (RNCFormatError, KeyError, ValueError):
            return
        # If it parsed, the magic must still have been intact.
        assert mutated[:4] == MAGIC


class TestYAMLFuzz:
    @given(st.text(max_size=200))
    @settings(max_examples=200, deadline=None)
    def test_random_text_parse_is_total(self, text):
        try:
            parse_yaml(text)
        except YAMLError:
            pass

    @given(st.text(
        alphabet=st.sampled_from(list("abc:-[]'\" #\n  01")), max_size=80,
    ))
    @settings(max_examples=300, deadline=None)
    def test_yaml_shaped_noise(self, text):
        """Noise built from YAML's own alphabet is the adversarial case."""
        try:
            parse_yaml(text)
        except YAMLError:
            pass


class TestPrimitiveFuzz:
    @given(st.text(max_size=120))
    @settings(max_examples=200, deadline=None)
    def test_random_query_strings(self, query):
        try:
            evaluate_ast(parse_primitive(query), np.ones(4))
        except PrimitiveError:
            pass

    @given(st.text(
        alphabet=st.sampled_from(
            list("oph_predicate(',measure)OPH_INT><=0123x ")
        ),
        max_size=100,
    ))
    @settings(max_examples=300, deadline=None)
    def test_primitive_shaped_noise(self, query):
        try:
            result = evaluate_ast(parse_primitive(query), np.arange(4.0))
        except PrimitiveError:
            return
        assert result.shape == (4,)  # success implies a well-formed result
