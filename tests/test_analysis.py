import csv
import io
import weakref

import numpy as np
import pytest

from bitsim.analysis import (
    ENGINE_TAGS,
    LayerRow,
    ReportDocument,
    TermCounts,
    count_terms,
    csv_line,
    report,
)
from bitsim.geometry import FilterSet, LayerSpec, Tensor3
from bitsim.numerics import MissingProfile, Precision
from bitsim.reference import CycleReport, EngineResult, dadn_layer
from scalar_forms import pair_term_counts


class TestPairTerms:
    def test_worked_example_five_bit_neuron(self):
        # 10.001 in binary is the bit pattern 10001: 2 essential bits
        got = pair_term_counts(0b10001, Precision.from_width(5))
        assert got["dadn"] == 16
        assert got["str"] == 5
        assert got["pra_fp16"] == 2
        assert got["pra_red"] == 2
        assert got["zn"] == 16 and got["cvn"] == 16

    def test_zero_neuron_skipping(self):
        got = pair_term_counts(0, Precision.from_width(5))
        assert got["zn"] == 0
        assert got["cvn"] == 0
        assert got["dadn"] == 16

    def test_first_layer_disables_cvn_skipping(self):
        got = pair_term_counts(0, Precision.from_width(5), first_layer=True)
        assert got["cvn"] == 16 and got["zn"] == 0

    def test_width8(self):
        got = pair_term_counts(0x81, Precision.from_width(4), width=8)
        assert got["dadn"] == 8
        assert got["pra_fp16"] == 2
        assert got["pra_red"] == 1  # bit 7 trimmed away by the 4-bit window


def small_layer(seed=0, relu=True):
    spec = LayerSpec(nx=4, ny=3, i=16, n=3, fx=2, fy=2)
    rng = np.random.default_rng(seed)
    lo = 0 if relu else -600
    t = Tensor3(rng.integers(lo, 600, size=(3, 4, 16)))
    return spec, t


class TestCountTerms:
    def test_requires_profile(self):
        spec, t = small_layer()
        with pytest.raises(MissingProfile):
            count_terms(t, spec, None)

    def test_totals_match_pair_enumeration(self):
        spec, t = small_layer(1)
        profile = Precision(8, 1)
        tc = count_terms(t, spec, profile)
        # brute-force enumeration over (window, brick offset, filter) pairs
        expect = {tag: 0 for tag in ENGINE_TAGS}
        for l in range(2):
            for k in range(3):
                for by in range(2):
                    for bx in range(2):
                        for i in range(16):
                            y, x = l + by, k + bx
                            v = int(t.data[y, x, i])
                            per = pair_term_counts(v, profile)
                            for tag in ENGINE_TAGS:
                                expect[tag] += per[tag] * spec.n
        assert tc.totals == expect
        assert tc.pairs == 2 * 3 * 2 * 2 * 16 * spec.n

    def test_ordering_invariants_on_profile_respecting_trace(self):
        spec, t = small_layer(2)
        profile = Precision(9, 0)
        trimmed = Tensor3(np.abs(t.data) & profile.mask)
        tc = count_terms(trimmed, spec, profile)
        assert tc.totals["pra_red"] <= tc.totals["pra_fp16"]
        assert tc.totals["pra_fp16"] <= tc.totals["str"]
        assert tc.totals["str"] <= tc.totals["dadn"]
        assert tc.totals["zn"] <= tc.totals["dadn"]
        assert tc.totals["cvn"] >= tc.totals["zn"]

    def test_normalized_baseline_is_one(self):
        spec, t = small_layer(3)
        tc = count_terms(t, spec, Precision(7, 0))
        norm = tc.normalized()
        assert norm["dadn"] == 1.0
        assert all(0 <= norm[tag] <= 1.0 + 1e-12 for tag in ("str", "pra_fp16", "pra_red"))


def make_result(cycles, engine="stripes", variant=""):
    rep = CycleReport(compute_cycles=cycles, sb_reads=1, total_terms=10,
                      effectual_terms=5)
    out = Tensor3(np.zeros((1, 1, 1), dtype=np.int64))
    return EngineResult(output=out, report=rep, engine=engine, variant=variant)


class TestReport:
    def test_empty_document_header_only(self):
        doc = report([])
        assert doc.csv_lines() == [",".join(ReportDocument.CSV_COLUMNS)]

    def test_a_row_keeps_its_runs_counters_and_not_its_output(self):
        res, collected = make_result(50), []
        weakref.finalize(res.output, collected.append, "output")
        doc = report([("conv1", res, 100)])
        assert doc.rows[0].report is res.report
        del res
        assert collected == ["output"]

    def test_single_layer_single_row(self):
        doc = report([("conv1", make_result(50), 100)])
        assert len(doc.csv_lines()) == 2
        assert doc.rows[0].speedup == pytest.approx(2.0)

    def test_aggregate_is_cycle_weighted(self):
        rows = [
            ("a", make_result(10), 100),  # speedup 10
            ("b", make_result(90), 100),  # speedup 1.11
        ]
        doc = report(rows)
        agg = doc.aggregate_speedups()["stripes"]
        assert agg == pytest.approx(200 / 100)  # sum(dadn)/sum(engine)
        geo = doc.geomean_speedups()["stripes"]
        assert geo == pytest.approx(np.sqrt(10 * (100 / 90)))

    def test_one_stripes_design_has_one_aggregate_across_layer_precisions(self):
        # a stripes row's variant is its layer's precision; the aggregate
        # lines are per design point, so both layers fall in one
        rows = [
            ("a", make_result(10, variant="p9"), 100),
            ("b", make_result(90, variant="p7"), 100),
            ("a", make_result(50, "pragmatic", "2b-pallet-red"), 100),
        ]
        doc = report(rows)
        agg = doc.aggregate_speedups()
        assert agg == pytest.approx({"stripes": 200 / 100, "pragmatic:2b-pallet-red": 2.0})
        assert doc.geomean_speedups()["stripes"] == pytest.approx(np.sqrt(10 * (100 / 90)))
        assert [line.split()[0] for line in doc.table().splitlines()
                if line.startswith("  ")] == ["pragmatic:2b-pallet-red", "stripes"]
        assert [r.variant for r in doc.rows] == ["p9", "p7", "2b-pallet-red"]
        assert [line.split(",")[2] for line in doc.csv_lines()[1:]] == [
            "p9", "p7", "2b-pallet-red"]

    def test_table_renders(self):
        doc = report([("conv1", make_result(50, "pragmatic", "2b-pallet-red"), 100)])
        text = doc.table()
        assert "conv1" in text and "2b-pallet-red" in text

    def test_a_layer_name_is_written_on_one_line_in_a_column_that_fits_it(self):
        # unescaped, "conv\n1" split each of its rows in two, and a name
        # past 12 characters pushed its row's columns right
        long = "a_layer_name_of_thirty_chars_x"
        names = ["conv\n1", long, "c2"]
        counts = TermCounts({tag: 16 for tag in ENGINE_TAGS}, pairs=1)
        doc = report([(name, make_result(50), 100) for name in names],
                     term_counts=dict.fromkeys(names, counts))
        lines = doc.table().splitlines()
        # header, rule, 3 rows, rule, 2 aggregate lines, rule, header, 3 rows
        assert len(lines) == 13
        written = ["conv\\n1", long, "c2"]
        rows, term_rows = lines[2:5], lines[10:13]
        assert [row.split()[0] for row in rows + term_rows] == 2 * written
        for row in rows:
            assert row.index("stripes") == lines[0].index("engine") == len(long) + 1
        for row in term_rows:
            assert row.index("1.000") + 5 == lines[9].index("norm zn") + 7

    def test_a_short_printable_name_keeps_the_twelve_wide_column(self):
        doc = report([("conv1", make_result(50), 100)])
        assert doc.table().splitlines()[2].startswith("conv1" + " " * 8 + "stripes ")


def test_csv_line_writes_each_cell_by_one_rule():
    # a float to 6 significant digits, None empty, anything else by str
    assert csv_line(["a", 3, 2.0, 0.1234567, None, np.int64(5)]) == "a,3,2,0.123457,,5"
    assert csv_line([]) == ""


def test_csv_line_quotes_a_string_holding_a_separator_a_quote_or_a_line_break():
    # RFC 4180: such a cell is quoted and its quotes doubled; others stay bare
    line = csv_line(["conv,1", 'a"b', "x\ny", "c\rd", 2.0, None, "plain"])
    assert line == '"conv,1","a""b","x\ny","c\rd",2,,plain'
    assert next(csv.reader(io.StringIO(line, newline=""))) == [
        "conv,1", 'a"b', "x\ny", "c\rd", "2", "", "plain"]
