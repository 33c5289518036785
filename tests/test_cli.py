import json
import os
import subprocess
import sys
import weakref

import pytest

import pathminer
import pathminer.cli as cli
import pathminer.decision_mining as decision_mining
from conftest import DATA_DIR, GOLDEN_DIR
from pathminer.cli import main
from pathminer.errors import FormatError
from pathminer.net_io import read_net_json
from pathminer.petri import CompiledNet
from pathminer.xes import read_xes

TABLE = DATA_DIR / "patients_table.csv"


def run_ok(args):
    assert main([str(a) for a in args]) == 0


def prepare_inputs(tmp_path):
    """Build the XES log and reference net the other subcommands consume."""
    log = tmp_path / "log.xes"
    net = tmp_path / "dejure.json"
    run_ok(["transform", "--input", TABLE, "--output", log])
    run_ok(["dejure", "--output", net])
    return log, net


class TestGoldenOutputs:
    def test_transform(self, tmp_path):
        out = tmp_path / "log.xes"
        run_ok(["transform", "--input", TABLE, "--output", out])
        assert out.read_bytes() == (GOLDEN_DIR / "transform_table.xes").read_bytes()

    def test_dejure(self, tmp_path):
        out = tmp_path / "net.json"
        dot = tmp_path / "net.dot"
        run_ok(["dejure", "--output", out, "--dot", dot])
        assert out.read_bytes() == (GOLDEN_DIR / "dejure.json").read_bytes()
        assert dot.read_bytes() == (GOLDEN_DIR / "dejure.dot").read_bytes()

    def test_discover_dfm(self, tmp_path):
        log, _ = prepare_inputs(tmp_path)
        out = tmp_path / "dfm.json"
        run_ok(["discover", "--input", log, "--algorithm", "dfg", "--paths", "0.9",
                "--output", out])
        assert out.read_bytes() == (GOLDEN_DIR / "discover_dfm.json").read_bytes()

    def test_discover_alpha(self, tmp_path):
        log, _ = prepare_inputs(tmp_path)
        out = tmp_path / "alpha.json"
        run_ok(["discover", "--input", log, "--algorithm", "alpha", "--output", out])
        assert out.read_bytes() == (GOLDEN_DIR / "discover_alpha.json").read_bytes()

    def test_conform(self, tmp_path):
        log, net = prepare_inputs(tmp_path)
        out = tmp_path / "report.json"
        run_ok(["conform", "--log", log, "--net", net, "--output", out])
        assert out.read_bytes() == (GOLDEN_DIR / "conform_dejure.json").read_bytes()
        report = json.loads(out.read_text())
        assert report["fitness"] == 1.0

    def test_cohorts(self, tmp_path):
        log, _ = prepare_inputs(tmp_path)
        outdir = tmp_path / "cohorts"
        run_ok(["cohorts", "--log", log, "--axis", "diabetes", "--outdir", outdir])
        assert (outdir / "kruskal_diabetes.csv").read_bytes() == (
            GOLDEN_DIR / "kruskal_diabetes.csv"
        ).read_bytes()
        assert (outdir / "cohorts_diabetes.json").read_bytes() == (
            GOLDEN_DIR / "cohorts_diabetes.json"
        ).read_bytes()

    def test_decide(self, tmp_path):
        log, net = prepare_inputs(tmp_path)
        out = tmp_path / "decide.json"
        run_ok(["decide", "--log", log, "--net", net, "--place", "p1",
                "--classifiers", "majority", "--seed", "0", "--output", out])
        assert out.read_bytes() == (GOLDEN_DIR / "decide_p1.json").read_bytes()

    def test_simulate(self, tmp_path):
        out = tmp_path / "patients.csv"
        run_ok(["simulate", "--patients", "5", "--seed", "7", "--output", out])
        assert out.read_bytes() == (GOLDEN_DIR / "simulate_5_seed7.csv").read_bytes()

    @pytest.mark.parametrize("place", ["p1", "p4"])
    def test_decide_all_classifiers_on_simulated_cohort(self, tmp_path, place):
        patients = tmp_path / "patients.csv"
        log = tmp_path / "log.xes"
        net = tmp_path / "dejure.json"
        out = tmp_path / "decide.json"
        run_ok(["simulate", "--patients", "240", "--seed", "7", "--output", patients])
        run_ok(["transform", "--input", patients, "--output", log])
        run_ok(["dejure", "--output", net])
        run_ok(["decide", "--log", log, "--net", net, "--place", place,
                "--classifiers", "majority,naive-bayes,logistic,decision-tree",
                "--seed", "0", "--output", out])
        golden = GOLDEN_DIR / f"decide_sim240_{place}.json"
        assert out.read_bytes() == golden.read_bytes()


class TestPipeline:
    def test_decide_filter_keeps_the_cases_of_one_phenotype(self, tmp_path):
        patients, log, net = tmp_path / "patients.csv", tmp_path / "log.xes", tmp_path / "net.json"
        run_ok(["simulate", "--patients", "240", "--seed", "7", "--output", patients])
        run_ok(["transform", "--input", patients, "--output", log])
        run_ok(["dejure", "--output", net])
        counts = {}
        for flags in ([], ["--filter", "hfref"]):
            out = tmp_path / f"decide{len(flags)}.json"
            run_ok(["decide", "--log", log, "--net", net, "--place", "p1", "--classifiers",
                    "majority", *flags, "--output", out])
            doc = json.loads(out.read_text())
            counts[doc["filter"]] = doc["n_instances"]
        expected = decision_mining.prepare_place(
            read_net_json(net.read_bytes()), read_xes(log.read_bytes()), "p1", ("majority",),
            phenotype_filter="HFrEF").report.n_instances
        assert 0 < counts["HFrEF"] == expected < counts[None]

    def test_simulate_transform_conform_reports_perfect_fitness(self, tmp_path):
        patients = tmp_path / "patients.csv"
        log = tmp_path / "log.xes"
        net = tmp_path / "net.json"
        report = tmp_path / "report.json"
        run_ok(["simulate", "--patients", "240", "--seed", "7", "--output", patients])
        run_ok(["transform", "--input", patients, "--output", log])
        run_ok(["dejure", "--output", net])
        run_ok(["conform", "--log", log, "--net", net, "--output", report])
        assert json.loads(report.read_text())["fitness"] == 1.0
        assert b'"fitness": 1.0000' in report.read_bytes()


class TestDeterminism:
    @pytest.mark.parametrize("paths", ["0.9", "1.0"])
    def test_discover_twice_identical(self, tmp_path, paths):
        log, _ = prepare_inputs(tmp_path)
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        for out in (first, second):
            run_ok(["discover", "--input", log, "--paths", paths, "--output", out])
        assert first.read_bytes() == second.read_bytes()

    def test_simulate_twice_identical(self, tmp_path):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        for out in (first, second):
            run_ok(["simulate", "--patients", "40", "--seed", "3", "--output", out])
        assert first.read_bytes() == second.read_bytes()


class TestErrorHandling:
    def test_unknown_subcommand_exits_1(self, capsys):
        assert main(["frobnicate"]) == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_unknown_flag_exits_1(self, capsys):
        assert main(["dejure", "--bogus"]) == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_missing_input_file_exits_1(self, tmp_path, capsys):
        code = main(["transform", "--input", str(tmp_path / "nope.csv"),
                     "--output", str(tmp_path / "out.xes")])
        assert code == 1
        assert "error" in capsys.readouterr().err.lower()

    def test_bad_csv_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("only,two\n1,2\n")
        code = main(["transform", "--input", str(bad),
                     "--output", str(tmp_path / "out.xes")])
        assert code == 1
        assert "column" in capsys.readouterr().err.lower()

    def test_transform_with_a_character_xml_cannot_carry_exits_1(self, tmp_path, capsys):
        # an XES file holding it would be written, and no later command could read it
        header, first, *rest = TABLE.read_text().splitlines()
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join([header, "0\x0107" + first[len("007"):], *rest]) + "\n")
        out = tmp_path / "out.xes"
        assert main(["transform", "--input", str(bad), "--output", str(out)]) == 1
        assert "trace 0: 'concept:name' holds '\\x01'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("reader", ["csv", "net", "config"])
    def test_a_non_utf8_byte_exits_1(self, tmp_path, capsys, reader):
        log, net = prepare_inputs(tmp_path)
        bad, out = tmp_path / "bad", tmp_path / "out"
        if reader == "csv":
            bad.write_bytes(TABLE.read_bytes().replace(b"007", b"0\xff7", 1))
            argv = ["transform", "--input", bad, "--output", out]
        elif reader == "net":
            bad.write_bytes(net.read_bytes().replace(b'"p0"', b'"p\xff0"', 1))
            argv = ["conform", "--log", log, "--net", bad, "--output", out]
        else:
            bad.write_bytes(b'{"patients": 3, "seed": "\xff"}')
            argv = ["simulate", "--config", bad, "--output", out]
        assert main([str(a) for a in argv]) == 1
        err = capsys.readouterr().err
        assert err.count("pathminer: error:") == 1 and err.count("\n") == 1, err
        assert "byte 0xff" in err
        assert not out.exists()

    def test_an_xes_declaring_an_unknown_encoding_exits_1(self, tmp_path, capsys):
        # found by the input fuzzer: a deleted "U" left encoding='TF-8'
        log, _ = prepare_inputs(tmp_path)
        log.write_bytes(log.read_bytes().replace(b"encoding='UTF-8'", b"encoding='TF-8'", 1))
        out = tmp_path / "net.json"
        assert main(["discover", "--input", str(log), "--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == "pathminer: error: unsupported XML encoding: unknown encoding: TF-8\n"
        assert not out.exists()

    @pytest.mark.parametrize("stamps", [
        ["2019-12-31T23:30:00-02:00"],  # 2020-01-01 in UTC
        ["2023-02-20T18:00:00+00:00", "2023-02-20T08:00:00+00:00"],  # later first in file order
    ], ids=["offset", "times-of-day"])
    def test_an_xes_timestamp_that_is_not_midnight_utc_exits_1(self, tmp_path, capsys, stamps):
        # cut to its date, such a timestamp would move an event to another
        # day or put the events of one day out of time order
        log, _ = prepare_inputs(tmp_path)
        data = log.read_bytes()
        for old, new in zip((b"2023-02-20T00:00:00+00:00", b"2023-03-14T00:00:00+00:00"), stamps):
            data = data.replace(old, new.encode(), 1)
        log.write_bytes(data)
        out = tmp_path / "net.json"
        assert main(["discover", "--input", str(log), "--output", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"pathminer: error: trace 0 event 0: bad date value '{stamps[0]}'\n")
        assert not out.exists()

    def test_an_xes_event_that_repeats_an_attribute_key_exits_1(self, tmp_path, capsys):
        # read, the event would keep the last of the two values without a word
        log, _ = prepare_inputs(tmp_path)
        line = b'\n      <int key="lvef" value="50" />'
        log.write_bytes(log.read_bytes().replace(line, line + line.replace(b"50", b"51"), 1))
        before = sorted(tmp_path.rglob("*"))
        outdir = tmp_path / "co"
        assert main(["cohorts", "--log", str(log), "--axis", "diabetes", "--outdir", str(outdir)]) == 1
        assert capsys.readouterr().err == "pathminer: error: trace 0 event 0: attribute 'lvef' repeats\n"
        assert sorted(tmp_path.rglob("*")) == before

    def test_bad_place_exits_1(self, tmp_path, capsys):
        log, net = prepare_inputs(tmp_path)
        code = main(["decide", "--log", str(log), "--net", str(net),
                     "--place", "p_end", "--output", str(tmp_path / "d.json")])
        assert code == 1
        assert "decision point" in capsys.readouterr().err

    def test_unknown_classifier_on_a_single_label_place_exits_1(self, tmp_path, capsys):
        # every instance at p0 of the table log chose "Visit before CO"
        log, net = prepare_inputs(tmp_path)
        out = tmp_path / "d.json"
        code = main(["decide", "--log", str(log), "--net", str(net), "--place", "p0",
                     "--classifiers", "bogus", "--output", str(out)])
        assert code == 1
        assert "unknown classifier kind 'bogus'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("kinds", ["majority,majority", "naive-bayes, majority,naive-bayes"])
    def test_a_classifier_named_twice_exits_1_and_writes_nothing(self, tmp_path, capsys, kinds):
        log, net = prepare_inputs(tmp_path)
        before = sorted(tmp_path.iterdir())
        code = main(["decide", "--log", str(log), "--net", str(net), "--place", "p1",
                     "--classifiers", kinds, "--output", str(tmp_path / "d.json")])
        assert code == 1
        assert capsys.readouterr().err == \
            f"pathminer: error: --classifiers names {kinds.split(',')[0].strip()!r} twice\n"
        assert sorted(tmp_path.iterdir()) == before

    @pytest.mark.parametrize("kinds", [",", " , "])
    def test_a_classifier_list_naming_none_exits_1_and_writes_nothing(self, tmp_path, capsys, kinds):
        log, net = prepare_inputs(tmp_path)
        before = sorted(tmp_path.iterdir())
        code = main(["decide", "--log", str(log), "--net", str(net), "--place", "p1",
                     "--classifiers", kinds, "--output", str(tmp_path / "d.json")])
        assert code == 1
        assert capsys.readouterr().err == \
            "pathminer: error: --classifiers must name at least one classifier\n"
        assert sorted(tmp_path.iterdir()) == before

    def test_simulate_with_a_bad_sampler_exits_1(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(
            {"attributes": {"lvef": {"kind": "uniform_int", "low": 70, "high": 10}}}
        ))
        out = tmp_path / "patients.csv"
        code = main(["simulate", "--config", str(config), "--output", str(out)])
        assert code == 1
        assert "pathminer: error: attribute 'lvef': low 70 exceeds high 10" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("config, message", [
        # found by the input fuzzer: deleting p1's "None" weight left no way out
        ({"places": {"p1": {"HF": 10, "CV": 5}}}, "no way to reach p_end, so it never ends"),
        ({"start_date": "9999-12-31"}, "a timestamp falls after 9999-12-31"),
    ], ids=["endless-walk", "date-overflow"])
    def test_simulate_with_a_config_whose_walk_cannot_be_written_exits_1(
            self, tmp_path, capsys, config, message):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "patients.csv"
        assert main(["simulate", "--config", str(path), "--patients", "5", "--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("pathminer: error: ") and err.count("\n") == 1 and message in err
        assert not out.exists()

    @pytest.mark.parametrize("text, message", [
        ('{"patient": 5, "sed": 3, "place": {"p1": {"HF": 100}}}',
         "unknown config keys ['patient', 'place', 'sed']"),
        ('{"places": {"p1": {"HF": "5", "None": 95}}}',
         "place p1: weight of 'HF' is not a finite number: '5'"),
        ('{"places": {"p1": {"HF": true, "None": 95}}}',
         "place p1: weight of 'HF' is not a finite number: True"),
        ('{"places": {"p4": {"Death_HF": NaN, "None": 95}}}',
         "place p4: weight of 'Death_HF' is not a finite number: nan"),
        ('{"places": {"p4": {"Death_HF": Infinity, "None": 95}}}',
         "place p4: weight of 'Death_HF' is not a finite number: inf"),
        ('{"places": {"p2": {"None": 1%s}}}' % ("0" * 400),
         "place p2: weight of 'None' is not a finite number: 1%s" % ("0" * 400)),
        ('{"attributes": {"urea": {"kind": "uniform", "high": 1%s}}}' % ("0" * 400),
         "attribute 'urea': high must be a finite number, got 1%s" % ("0" * 400)),
        ('{"patients": 1%s}' % ("0" * 5000),
         "malformed config JSON: Exceeds the limit (4300 digits) for integer string conversion: "
         "value has 5001 digits; use sys.set_int_max_str_digits() to increase the limit"),
        ('{"gap_days": [5, 2]}', "gap_days must satisfy 1 <= min <= max"),
        # uniform draws low + (high - low) * u, which overflows although both ends fit a float
        ('{"patients": 3, "attributes": {"urea": {"kind": "uniform", "low": -1.7e308, '
         '"high": 1.7e308}}}', "attribute 'urea': high - low must be a finite float"),
        ('{"patients": 3, "attributes": {"urea": {"kind": "uniform", "low": -1%s, "high": 1%s}}}'
         % ("0" * 308, "0" * 308), "attribute 'urea': high - low must be a finite float"),
    ], ids=["unknown-keys", "string-weight", "boolean-weight", "nan-weight", "infinite-weight",
            "401-digit-weight", "401-digit-high", "5001-digit-patients", "gap-days-reversed",
            "float-range-overflow", "integer-range-overflow"])
    def test_simulate_with_a_config_that_is_not_one_exits_1(self, tmp_path, capsys, text, message):
        path = tmp_path / "config.json"
        path.write_text(text)
        out = tmp_path / "patients.csv"
        assert main(["simulate", "--config", str(path), "--output", str(out)]) == 1
        assert capsys.readouterr().err == f"pathminer: error: {message}\n"
        assert sorted(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("alpha", ["nan", "2", "0"])
    def test_cohorts_alpha_outside_the_open_unit_interval_exits_1(self, tmp_path, capsys, alpha):
        log, _ = prepare_inputs(tmp_path)
        outdir = tmp_path / "cohorts"
        code = main(["cohorts", "--log", str(log), "--axis", "diabetes", "--alpha", alpha,
                     "--outdir", str(outdir)])
        assert code == 1
        assert "alpha must lie in (0, 1)" in capsys.readouterr().err
        assert not outdir.exists()

    def test_conform_negative_cap_is_an_input_error(self, tmp_path, capsys):
        log, net = prepare_inputs(tmp_path)
        out = tmp_path / "report.json"
        code = main(["conform", "--log", str(log), "--net", str(net), "--cap", "-1",
                     "--output", str(out)])
        assert code == 1
        assert "state-space cap must be at least 0, got -1" in capsys.readouterr().err
        assert not out.exists()

    def test_conform_negative_cap_on_an_empty_log_is_an_input_error(self, tmp_path, capsys):
        # an empty log aligns nothing, so the cap is checked before any alignment
        _, net = prepare_inputs(tmp_path)
        log = tmp_path / "empty.xes"
        log.write_text("<log></log>")
        out = tmp_path / "report.json"
        code = main(["conform", "--log", str(log), "--net", str(net), "--cap", "-1",
                     "--output", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            "pathminer: error: state-space cap must be at least 0, got -1\n")
        assert not out.exists()

    def test_conform_on_a_net_with_an_unbounded_silent_run_exits_1(self, tmp_path, capsys):
        # found by the input fuzzer: without its input arc the silent
        # back_to_watch fires from any marking, so the silent runs after a
        # prefix reach unboundedly many markings; that search ran out of memory
        csv, log, net = (tmp_path / name for name in ("a.csv", "a.xes", "net.json"))
        run_ok(["simulate", "--patients", 30, "--seed", 11, "--output", csv])
        run_ok(["transform", "--input", csv, "--output", log])
        run_ok(["dejure", "--output", net])
        doc = json.loads(net.read_text())
        doc["arcs"].remove({"source": "p3", "target": "back_to_watch"})
        net.write_text(json.dumps(doc))
        out = tmp_path / "report.json"
        code = main(["conform", "--log", str(log), "--net", str(net), "--cap", "2000",
                     "--output", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            "pathminer: error: state-space cap of 2000 markings exceeded by the silent runs "
            "after a prefix (precision)\n")
        assert not out.exists()

    def test_decide_with_a_string_where_training_holds_numbers_exits_1(self, tmp_path, capsys):
        # the sixth weight of the seed-7 log falls in p1's test rows; the
        # classifiers would call float() on it and exit 2
        csv, log, net = (tmp_path / name for name in ("a.csv", "a.xes", "net.json"))
        run_ok(["simulate", "--patients", 240, "--seed", 7, "--output", csv])
        run_ok(["transform", "--input", csv, "--output", log])
        run_ok(["dejure", "--output", net])
        text = log.read_text()
        at = -1
        for _ in range(6):
            at = text.index('<float key="weight"', at + 1)
        end = text.index("/>", at) + 2
        log.write_text(text[:at] + '<string key="weight" value="abc" />' + text[end:])
        out = tmp_path / "d.json"
        code = main(["decide", "--log", str(log), "--net", str(net), "--place", "p1",
                     "--classifiers", "naive-bayes,logistic,decision-tree", "--output", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            "pathminer: error: case '0007': attribute 'weight' holds 'abc' "
            "where the training rows hold numbers\n")
        assert not out.exists()

    def test_conform_on_alpha_net_without_a_run_exits_1(self, tmp_path, capsys):
        # on this cohort the alpha net never consumes from its sink place, so
        # no run reaches the final marking; the search must say so, not
        # exhaust its state cap
        csv, log, net = (tmp_path / name for name in ("a.csv", "a.xes", "alpha.json"))
        run_ok(["simulate", "--patients", 240, "--seed", 5, "--output", csv])
        run_ok(["transform", "--input", csv, "--output", log])
        run_ok(["discover", "--input", log, "--algorithm", "alpha", "--output", net])
        code = main(["conform", "--log", str(log), "--net", str(net),
                     "--output", str(tmp_path / "c.json")])
        assert code == 1
        assert ("the net has no run from its initial marking to its final marking"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("row, message", [
        ("0001,50,0,0,1,80,2017,750.5,1,,Heart,,24.9,10.5,38,100,50,10,12.5,2023-02-20",
         "row 1: unknown outcome label 'Heart'"),
        ("0001,50,0,0,1", "row 1: Timestamp must not be empty"),  # shorter than the header
        ("0001,50,0,0,1,80,2017,750.5,1,,,,24.9,10.5,38,100,50,10,12.5,2023-02-20,,EXTRA",
         "row 1: cell 'EXTRA' lies past the header's 20 columns"),
        ("0001,50,1,1,,80,2017,750.5,1,,,,24.9,10.5,38,100,50,10,12.5,2023-02-20",
         "row 1: patient 0001: more than one phenotype flag set"),
    ], ids=["unknown-outcome", "short-row", "cell-past-the-header", "two-phenotype-flags"])
    def test_transform_with_a_row_that_is_not_one_exits_1(self, tmp_path, capsys, row, message):
        bad = tmp_path / "bad.csv"
        bad.write_text(f"{TABLE.read_text().splitlines()[0]}\n{row}\n")
        out = tmp_path / "out.xes"
        assert main(["transform", "--input", str(bad), "--output", str(out)]) == 1
        assert capsys.readouterr().err == f"pathminer: error: {message}\n"
        assert sorted(tmp_path.iterdir()) == [bad]

    def test_a_csv_cell_over_the_field_size_limit_exits_1(self, tmp_path, capsys):
        header = TABLE.read_text().splitlines()[0]
        bad = tmp_path / "bad.csv"
        bad.write_text(f'{header},Note\n001,50,0,0,1,,,,,,,,,,,,,,,2023-01-01,"{"x" * 200_000}"\n')
        out = tmp_path / "out.xes"
        assert main(["transform", "--input", str(bad), "--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == "pathminer: error: row 1: field larger than field limit (131072)\n"
        assert not out.exists()


class TestAllOrNothing:
    """Every artifact is computed, and every target checked, before any is written."""

    @pytest.mark.parametrize("command", ["discover", "dejure"])
    def test_dot_in_a_missing_directory_writes_no_net(self, tmp_path, capsys, monkeypatch, command):
        log, _ = prepare_inputs(tmp_path)
        monkeypatch.chdir(tmp_path)
        argv = [command, "--output", "net.json", "--dot", "nodir/net.dot"]
        if command == "discover":
            argv += ["--input", str(log)]
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            "pathminer: error: [Errno 2] No such file or directory: 'nodir/net.dot'\n")
        assert not (tmp_path / "net.json").exists()

    @pytest.mark.parametrize("command", ["discover", "dejure"])
    def test_dot_naming_the_output_file_writes_nothing(self, tmp_path, capsys, monkeypatch,
                                                       command):
        log, _ = prepare_inputs(tmp_path)
        monkeypatch.chdir(tmp_path)
        argv = [command, "--output", "net.json", "--dot", "./net.json"]
        if command == "discover":
            argv += ["--input", str(log)]
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            "pathminer: error: --dot must name a different file from --output\n")
        assert not (tmp_path / "net.json").exists()

    def test_a_target_that_is_a_directory_writes_nothing(self, tmp_path, capsys):
        (tmp_path / "taken").mkdir()
        net = tmp_path / "net.json"
        code = main(["dejure", "--output", str(net), "--dot", str(tmp_path / "taken")])
        assert code == 1
        assert "[Errno 21] Is a directory" in capsys.readouterr().err
        assert not net.exists()

    def test_a_target_under_a_file_writes_nothing(self, tmp_path, capsys):
        (tmp_path / "file").write_bytes(b"")
        net = tmp_path / "net.json"
        code = main(["dejure", "--output", str(net), "--dot", str(tmp_path / "file" / "x.dot")])
        assert code == 1
        assert "[Errno 20] Not a directory" in capsys.readouterr().err
        assert not net.exists()

    @pytest.mark.parametrize("outdir, message", [
        ("file", "[Errno 17] File exists: 'file'"),
        ("file/co", "[Errno 20] Not a directory: 'file/co'"),
    ], ids=["a-file", "under-a-file"])
    def test_cohorts_outdir_that_cannot_be_a_directory_creates_nothing(
            self, tmp_path, capsys, monkeypatch, outdir, message):
        log, _ = prepare_inputs(tmp_path)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "file").write_bytes(b"")
        before = sorted(tmp_path.rglob("*"))
        assert main(["cohorts", "--log", str(log), "--axis", "diabetes", "--outdir", outdir]) == 1
        assert capsys.readouterr().err == f"pathminer: error: {message}\n"
        assert sorted(tmp_path.rglob("*")) == before
        assert (tmp_path / "file").read_bytes() == b""

    def test_cohorts_table_that_is_a_directory_writes_nothing(self, tmp_path, capsys, monkeypatch):
        log, _ = prepare_inputs(tmp_path)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "co" / "kruskal_diabetes.csv").mkdir(parents=True)
        before = sorted(tmp_path.rglob("*"))
        assert main(["cohorts", "--log", str(log), "--axis", "diabetes", "--outdir", "co"]) == 1
        assert capsys.readouterr().err == (
            "pathminer: error: [Errno 21] Is a directory: 'co/kruskal_diabetes.csv'\n")
        assert sorted(tmp_path.rglob("*")) == before

    def test_a_failing_dot_rendering_writes_no_net(self, tmp_path, capsys, monkeypatch):
        def failing(net):
            raise FormatError("cannot render")

        monkeypatch.setattr(cli, "write_dot", failing)
        net = tmp_path / "net.json"
        code = main(["dejure", "--output", str(net), "--dot", str(tmp_path / "net.dot")])
        assert code == 1
        assert capsys.readouterr().err == "pathminer: error: cannot render\n"
        assert not net.exists() and not (tmp_path / "net.dot").exists()


def buffered_env():
    """This environment without PYTHONUNBUFFERED, so that a child's stdout is
    block-buffered into its pipe and reaches it only when flushed."""
    return {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}


def test_console_entry_point_runs(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    result = subprocess.run(
        [sys.executable, "-m", "pathminer", "--help"],
        capture_output=True,
        text=True,
        env=buffered_env(),
    )
    assert result.returncode == 0
    assert "transform" in result.stdout
    assert result.stdout == cli.build_parser().format_help()


# A child that registers an atexit handler writing a marker file (its first
# argument), then runs the rest of its arguments either as a program, the
# way ``python -m pathminer`` does, or through an in-process ``main`` that
# returns into the interpreter's normal teardown. BROKEN_STDOUT, put before
# either, makes every flush of stdout fail.
MARKER = ("import atexit, errno, io, pathlib, runpy, sys\n"
          "atexit.register(pathlib.Path(sys.argv.pop(1)).write_text, 'atexit ran')\n")
BROKEN_STDOUT = ("class Broken(io.StringIO):\n"
                 "    def flush(self):\n"
                 "        raise OSError(errno.EPIPE, 'broken pipe')\n"
                 "sys.stdout = Broken()\n")
AS_PROGRAM = "runpy.run_module('pathminer', run_name='__main__', alter_sys=True)\n"
IN_PROCESS = "from pathminer.cli import main\nraise SystemExit(main(sys.argv[1:]))\n"


def run_child(script, marker, argv):
    return subprocess.run(
        [sys.executable, "-c", script, str(marker), *map(str, argv)],
        capture_output=True,
        text=True,
        env=buffered_env(),
    )


@pytest.mark.parametrize("argv, code", [
    (["dejure", "--output", "{tmp}/net.json"], 0),
    (["conform", "--log", "{tmp}/log.xes", "--net", "{tmp}/dejure.json", "--cap", "-1",
      "--output", "{tmp}/c.json"], 1),
    (["conform", "--log", "{tmp}/log.xes", "--no-such-option"], 1),
    (["transform", "--input", "{tmp}/missing.csv", "--output", "{tmp}/t.xes"], 1),
], ids=["dejure", "conform-cap", "usage", "missing-input"])
def test_a_program_skips_atexit_and_keeps_the_exit_code_and_stderr_of_main(tmp_path, argv, code):
    prepare_inputs(tmp_path)
    argv = [a.format(tmp=tmp_path) for a in argv]
    program = run_child(MARKER + AS_PROGRAM, tmp_path / "program.marker", argv)
    returned = run_child(MARKER + IN_PROCESS, tmp_path / "returned.marker", argv)
    assert not (tmp_path / "program.marker").exists()
    assert (tmp_path / "returned.marker").read_text() == "atexit ran"
    assert (program.returncode, program.stdout, program.stderr) == (
        returned.returncode, returned.stdout, returned.stderr)
    assert program.returncode == code
    errors = [line for line in program.stderr.splitlines() if line.startswith("pathminer: ")]
    assert len(errors) == code and all(e.startswith("pathminer: error: ") for e in errors)


@pytest.mark.parametrize("argv", [
    ["transform", "--input", TABLE, "--output", "{out}/log.xes"],
    ["dejure", "--output", "{out}/net.json", "--dot", "{out}/net.dot"],
    ["discover", "--input", "{tmp}/log.xes", "--algorithm", "alpha", "--output", "{out}/a.json"],
    ["conform", "--log", "{tmp}/log.xes", "--net", "{tmp}/dejure.json", "--output", "{out}/c.json"],
    ["cohorts", "--log", "{tmp}/log.xes", "--axis", "ckd", "--outdir", "{out}/co"],
    ["decide", "--log", "{tmp}/log.xes", "--net", "{tmp}/dejure.json", "--place", "p1",
     "--classifiers", "majority,naive-bayes,logistic,decision-tree", "--output", "{out}/d.json"],
], ids=lambda argv: argv[0])
def test_a_program_writes_the_bytes_that_main_writes(tmp_path, argv):
    prepare_inputs(tmp_path)
    program, returned = tmp_path / "program", tmp_path / "returned"
    program.mkdir()
    returned.mkdir()
    result = subprocess.run(
        [sys.executable, "-m", "pathminer", *(str(a).format(tmp=tmp_path, out=program) for a in argv)],
        capture_output=True,
        text=True,
        env=buffered_env(),
    )
    assert (result.returncode, result.stdout, result.stderr) == (0, "", "")
    run_ok([str(a).format(tmp=tmp_path, out=returned) for a in argv])
    files = {p.relative_to(returned): p.read_bytes() for p in sorted(returned.rglob("*")) if p.is_file()}
    assert files
    assert {p.relative_to(program): p.read_bytes()
            for p in sorted(program.rglob("*")) if p.is_file()} == files


def test_a_failed_flush_falls_back_to_the_normal_exit(tmp_path):
    argv = ["dejure", "--output", tmp_path / "net.json"]
    program = run_child(MARKER + BROKEN_STDOUT + AS_PROGRAM, tmp_path / "program.marker", argv)
    # the atexit handler runs, and teardown reports the failed flush, as it
    # does after main() returns
    assert (tmp_path / "program.marker").read_text() == "atexit ran"
    returned = run_child(MARKER + BROKEN_STDOUT + IN_PROCESS, tmp_path / "returned.marker", argv)
    assert program.returncode == returned.returncode != 0
    assert "BrokenPipeError: [Errno 32] broken pipe" in program.stderr
    assert program.stderr.splitlines()[-1] == returned.stderr.splitlines()[-1]


def test_importing_the_cli_leaves_numpy_unloaded():
    # only decision mining's classifiers need numpy; they import it on use
    result = subprocess.run(
        [sys.executable, "-c", "import sys, pathminer.cli; print(sorted("
         "m for m in sys.modules if m.split('.')[0] in ('numpy', 'scipy')))"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


def test_decide_without_logistic_or_tree_never_imports_numpy(tmp_path):
    log, net = prepare_inputs(tmp_path)
    out = tmp_path / "d.json"
    result = subprocess.run(
        [sys.executable, "-c", "import sys; from pathminer.cli import main; code = main(sys.argv[1:]); "
         "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))",
         "decide", "--log", str(log), "--net", str(net), "--place", "p1",
         "--classifiers", "majority,naive-bayes", "--output", str(out)],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "0 []\n"
    assert [c["kind"] for c in json.loads(out.read_text())["classifiers"]] == ["majority", "naive-bayes"]


def test_decide_on_a_net_with_an_unbounded_silent_run_stops_at_the_default_cap(tmp_path):
    # without its input arc the silent end_record fires from any marking, so
    # the alignment search never runs out of states; the default cap ends it
    # with exit 1, not a MemoryError, within 1 GiB of address space
    csv, log, net = (tmp_path / name for name in ("a.csv", "a.xes", "net.json"))
    run_ok(["simulate", "--patients", 30, "--seed", 7, "--output", csv])
    run_ok(["transform", "--input", csv, "--output", log])
    run_ok(["dejure", "--output", net])
    doc = json.loads(net.read_text())
    doc["arcs"].remove({"source": "p1", "target": "end_record"})
    net.write_text(json.dumps(doc))
    out = tmp_path / "d.json"
    result = subprocess.run(
        [sys.executable, "-c", "import resource, sys; "
         "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
         "from pathminer.cli import main; sys.exit(main(sys.argv[1:]))",
         "decide", "--log", str(log), "--net", str(net), "--place", "p1", "--output", str(out)],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 1, result.stderr
    assert result.stderr == (
        "pathminer: error: state-space cap of 100000 markings exceeded aligning case '0001' "
        "(a variant of 1 events)\n")
    assert not out.exists()


@pytest.mark.parametrize("command, options", [
    ("conform", []),
    ("decide", ["--place", "p1", "--classifiers", "majority"]),
])
def test_a_command_compiles_its_net_once(tmp_path, monkeypatch, command, options):
    log, net = prepare_inputs(tmp_path)
    compiled = []
    compile_net = CompiledNet.__init__

    def counting(self, net):
        compiled.append(net)
        compile_net(self, net)

    monkeypatch.setattr(CompiledNet, "__init__", counting)
    run_ok([command, "--log", log, "--net", net, *options, "--output", tmp_path / "out.json"])
    assert len(compiled) == 1


# The stage modules each subcommand loads, beyond cli, errors and model.
STAGES_LOADED = {
    "simulate": {"patient_csv", "petri", "simulate"},
    "transform": {"patient_csv", "transform", "xes"},
    "discover": {"discovery", "net_io", "petri", "xes"},
    "dejure": {"net_io", "petri"},
    "conform": {"conformance", "net_io", "petri", "xes"},
    "cohorts": {"stats", "xes"},
    "decide": {"classifiers", "conformance", "decision_mining", "net_io", "petri", "xes"},
}

# The package's modules and the stdlib modules it keeps off start-up:
# dataclasses costs its class compiles and its import of inspect.
LOADED_MODULES = (
    "import sys; from pathminer.cli import main; code = main(sys.argv[1:]); "
    "print(code, sorted(m for m in sys.modules "
    "if m.startswith('pathminer.') or m in ('dataclasses', 'inspect')))"
)


@pytest.mark.parametrize("command", sorted(STAGES_LOADED))
def test_each_subcommand_loads_only_its_stages(tmp_path, command):
    log, net = prepare_inputs(tmp_path)
    argv = {
        "simulate": ["--patients", 5, "--seed", 7, "--output", tmp_path / "p.csv"],
        "transform": ["--input", TABLE, "--output", tmp_path / "t.xes"],
        "discover": ["--input", log, "--output", tmp_path / "d.json"],
        "dejure": ["--output", tmp_path / "j.json"],
        "conform": ["--log", log, "--net", net, "--output", tmp_path / "c.json"],
        "cohorts": ["--log", log, "--axis", "diabetes", "--outdir", tmp_path / "co"],
        "decide": ["--log", log, "--net", net, "--place", "p1",
                   "--classifiers", "majority", "--output", tmp_path / "de.json"],
    }[command]
    result = subprocess.run(
        [sys.executable, "-c", LOADED_MODULES, command, *map(str, argv)],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    loaded = {f"pathminer.{m}" for m in STAGES_LOADED[command] | {"cli", "errors", "model"}}
    assert result.stdout == f"0 {sorted(loaded)}\n"


# The names a tracer replaces on this module to time each layer of a run.
TRACED_NAMES = (
    "simulate", "write_patient_csv", "parse_patient_csv", "transform_log", "write_xes",
    "read_xes", "mine_dfm", "mine_alpha", "conformance_report", "compare_cohorts", "mine_place",
)


@pytest.mark.parametrize("name", TRACED_NAMES)
def test_stage_names_resolve_on_the_cli_module(name):
    assert getattr(cli, name) is getattr(pathminer, name)


def test_unknown_name_on_the_cli_module_raises_attribute_error():
    with pytest.raises(AttributeError):
        cli.no_such_stage
    with pytest.raises(AttributeError):
        cli.__path__  # the CLI is a module, not a package


def test_run_calls_a_stage_replaced_on_the_cli_module(tmp_path, monkeypatch):
    log, _ = prepare_inputs(tmp_path)
    calls = []
    read_xes = cli.read_xes

    def counting(data):
        calls.append(len(data))
        return read_xes(data)

    monkeypatch.setattr(cli, "read_xes", counting)
    run_ok(["cohorts", "--log", log, "--axis", "diabetes", "--outdir", tmp_path / "co"])
    assert calls == [log.stat().st_size]


ALL_FOUR = "majority,naive-bayes,logistic,decision-tree"


@pytest.fixture(scope="module")
def cohort_240(tmp_path_factory):
    """The XES of the seed-7 240-patient cohort and the reference net."""
    d = tmp_path_factory.mktemp("cohort_240")
    run_ok(["simulate", "--patients", 240, "--seed", 7, "--output", d / "patients.csv"])
    run_ok(["transform", "--input", d / "patients.csv", "--output", d / "log.xes"])
    run_ok(["dejure", "--output", d / "dejure.json"])
    return d / "log.xes", d / "dejure.json"


@pytest.mark.parametrize("classifiers", ["majority,naive-bayes", ALL_FOUR])
@pytest.mark.parametrize("place", ["p1", "p4"])
def test_decide_frees_the_log_before_the_first_classifier_trains(
        cohort_240, tmp_path, monkeypatch, place, classifiers):
    # only the encoded columns are read in training, so the events and their
    # attribute dicts need not be held while numpy loads and the models fit
    read_xes, train_classifier = cli.read_xes, decision_mining.train_classifier
    logs, alive = [], []

    def reading(data):
        log = read_xes(data)
        logs.append(weakref.ref(log))
        return log

    def training(holdout, kind):
        alive.append(logs[0]() is not None)
        return train_classifier(holdout, kind)

    monkeypatch.setattr(cli, "read_xes", reading)
    monkeypatch.setattr(decision_mining, "train_classifier", training)
    log, net = cohort_240
    out = tmp_path / "d.json"
    run_ok(["decide", "--log", log, "--net", net, "--place", place,
            "--classifiers", classifiers, "--output", out])
    assert alive == [False] * len(classifiers.split(","))
    golden = json.loads((GOLDEN_DIR / f"decide_sim240_{place}.json").read_bytes())
    golden["classifiers"] = golden["classifiers"][:len(alive)]
    assert json.loads(out.read_bytes()) == golden


def test_transform_frees_the_parsed_rows_before_the_log_is_written(tmp_path, monkeypatch):
    class Rows(list):  # a list that a weak reference can name
        pass

    parse_patient_csv, write_xes = cli.parse_patient_csv, cli.write_xes
    rows, alive = [], []

    def parsing(data):
        parsed = Rows(parse_patient_csv(data))
        rows.append(weakref.ref(parsed))
        return parsed

    def writing(log):
        alive.append(rows[0]() is not None)
        return write_xes(log)

    monkeypatch.setattr(cli, "parse_patient_csv", parsing)
    monkeypatch.setattr(cli, "write_xes", writing)
    run_ok(["transform", "--input", TABLE, "--output", tmp_path / "t.xes"])
    assert alive == [False]
    assert (tmp_path / "t.xes").read_bytes() == (GOLDEN_DIR / "transform_table.xes").read_bytes()
