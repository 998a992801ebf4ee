import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import flowdpi
import reference
from flowdpi import cli, engine, logistic, metrics, persistence
from flowdpi.cli import main
from flowdpi.flows import packet_to_json_line
from flowdpi.sampler import SamplerConfig, trace
from synth import (benign_payload, flow_csv_rows, labeled_corpus,
                   malicious_payload)


@pytest.fixture(scope="module")
def corpus_file(tmp_path_factory):
    rng = np.random.default_rng(42)
    payloads, y = labeled_corpus(rng, 120, 60)
    path = tmp_path_factory.mktemp("data") / "corpus.jsonl"
    with open(path, "w") as fp:
        for p, label in zip(payloads, y):
            fp.write(json.dumps({"payload": p, "label": int(label)}) + "\n")
    return path


@pytest.fixture(scope="module")
def flows_file(tmp_path_factory):
    rows = flow_csv_rows(np.random.default_rng(43), 80, 40)
    path = tmp_path_factory.mktemp("data") / "flows.csv"
    path.write_text("\n".join(rows) + "\n")
    return path


@pytest.fixture(scope="module")
def payload_model_file(corpus_file, tmp_path_factory):
    out = tmp_path_factory.mktemp("models") / "payload.json"
    assert main(["train-payload", str(corpus_file), str(out),
                 "--lambda", "0.01"]) == 0
    return out


@pytest.fixture(scope="module")
def tree_model_file(flows_file, tmp_path_factory):
    out = tmp_path_factory.mktemp("models") / "tree.json"
    assert main(["train-encrypted", str(flows_file), str(out)]) == 0
    return out


class TestTrainPayload:
    def test_prints_cv_table_and_writes_model(self, corpus_file, tmp_path,
                                              capsys):
        out = tmp_path / "model.json"
        assert main(["train-payload", str(corpus_file), str(out),
                     "--lambda", "0.01"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("fold")
        assert sum(1 for ln in lines if ln.startswith("mean")) == 1
        assert len([ln for ln in lines
                    if ln.strip()[:1].isdigit()]) == 5   # default 5 folds
        assert persistence.peek_schema(out) == persistence.PAYLOAD_SCHEMA

    def test_same_seed_reproduces_model_bytes(self, corpus_file, tmp_path):
        outs = [tmp_path / "a.json", tmp_path / "b.json"]
        for out in outs:
            assert main(["train-payload", str(corpus_file), str(out),
                         "--seed", "7"]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_model_and_cv_table_match_the_old_composition(
            self, corpus_file, tmp_path, capsys):
        """The corpus is tokenized once and each fold fits from the
        counts; the old path refit on strings and featurized every
        payload per fold. Summed in the oracle's order, both must print
        and save the same bytes; the dense path stays within 1e-12."""
        out = tmp_path / "model.json"
        assert main(["train-payload", str(corpus_file), str(out),
                     "--lambda", "0.01", "--max-iters", "300"]) == 0
        printed = capsys.readouterr().out

        payloads, y = cli._read_labeled_corpus(corpus_file)
        hyper = logistic.LogisticHyper(lam=0.01, max_iters=300)

        def stack(featurizer, rows):
            return reference.stack_dense(
                [reference.featurize(featurizer, payloads[i]) for i in rows],
                featurizer.dim)

        def fit(rows, dense):
            featurizer = reference.fit_featurizer([payloads[i] for i in rows])
            X = stack(featurizer, rows)
            if dense:
                return (featurizer, *reference.train(X, y[rows], hyper))
            return (featurizer, *reference.train(
                reference.batch(X), y[rows], hyper,
                reference.sparse_loss_grad))

        for dense in (False, True):
            def fit_predict(train_idx, held_out):
                featurizer, model, _ = fit(train_idx, dense)
                X_val = stack(featurizer, held_out)
                z = (X_val @ model.weights + model.bias if dense else
                     reference.margins(reference.batch(X_val),
                                       model.weights, model.bias))
                return reference.sigmoid(z) >= 0.5

            cli._print_cv_table(metrics.cross_validate(y, 5, 42, fit_predict))
            featurizer, model, info = fit(range(len(payloads)), dense)
            print(f"wrote {out} (dim={model.dim}, iters={info.n_iter}, "
                  f"final_loss={info.losses[-1]:.6f})")
            assert printed == capsys.readouterr().out
            if not dense:
                expected = tmp_path / "expected.json"
                persistence.save_payload_model(expected, featurizer, model)
                assert out.read_bytes() == expected.read_bytes()
        _, saved = persistence.load_payload_model(out)
        assert np.max(np.abs(saved.weights - model.weights)) <= 1e-12
        assert abs(saved.bias - model.bias) <= 1e-12

    def test_empty_corpus_is_data_error(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["train-payload", str(empty),
                     str(tmp_path / "m.json")]) == 2

    def test_single_class_is_data_error(self, tmp_path):
        path = tmp_path / "one.jsonl"
        path.write_text('{"payload": "/a", "label": 0}\n' * 10)
        assert main(["train-payload", str(path),
                     str(tmp_path / "m.json")]) == 2

    def test_corpus_that_is_not_utf8_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "corpus.jsonl"
        path.write_bytes(b'{"payload": "\xff", "label": 1}\n')
        assert main(["train-payload", str(path),
                     str(tmp_path / "m.json")]) == 2
        assert "data error: cannot read corpus" in capsys.readouterr().err

    def test_corpus_nested_past_the_recursion_limit_is_data_error(
            self, tmp_path, capsys):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"payload": "/a", "label": 0}\n'
                        '{"payload": ' + "[" * 200_000 + "\n")
        assert main(["train-payload", str(path),
                     str(tmp_path / "m.json")]) == 2
        assert (f"data error: {path}:2: bad JSON: maximum recursion depth"
                in capsys.readouterr().err)

    def test_raw_line_separator_in_a_payload_is_one_record(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        payloads = ["/a\u2028b", "/c\x85d\u2029"]
        path.write_text("".join(
            json.dumps({"payload": p, "label": i}, ensure_ascii=False) + "\n"
            for i, p in enumerate(payloads)), encoding="utf-8")
        read, y = cli._read_labeled_corpus(path)
        assert read == payloads and y.tolist() == [0, 1]

    def test_malformed_record_is_data_error(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"payload": "/a"}\n')
        assert main(["train-payload", str(path),
                     str(tmp_path / "m.json")]) == 2

    def test_model_bytes_do_not_depend_on_the_blas_kernel(self, corpus_file,
                                                          tmp_path):
        """OpenBLAS picks its kernels by CPU, and ``OPENBLAS_CORETYPE``
        forces a choice.  Training makes no BLAS call, so every choice
        saves the same model bytes."""
        src = str(Path(flowdpi.__file__).resolve().parents[1])
        models = set()
        for core in ("Prescott", "Sandybridge", "Haswell", "SkylakeX"):
            out = tmp_path / f"{core}.json"
            env = {**os.environ, "OPENBLAS_CORETYPE": core,
                   "PYTHONPATH": os.pathsep.join(
                       filter(None, (src, os.environ.get("PYTHONPATH"))))}
            subprocess.run([sys.executable, "-m", "flowdpi.cli",
                            "train-payload", str(corpus_file), str(out),
                            "--lambda", "0.01", "--max-iters", "300"],
                           env=env, check=True, capture_output=True,
                           timeout=300)
            models.add(out.read_bytes())
        assert len(models) == 1


def test_no_command_imports_numpy_ma(corpus_file, flows_file,
                                    payload_model_file, tree_model_file,
                                    tmp_path):
    """``numpy.ma`` costs about 15 ms to import, and ``np.unique`` imports
    it; no command needs it."""
    packets = tmp_path / "packets.jsonl"
    packets.write_text(packet_to_json_line("10.1.0.1", 40000, "10.9.9.9", 80,
                                           "TCP", 0.0, "/a") + "\n")
    blacklist = tmp_path / "blacklist.txt"
    blacklist.write_text("10.2.0.0/16\n")
    deltas = tmp_path / "deltas.csv"
    deltas.write_text("0\n1\n")
    commands = [
        ["train-payload", corpus_file, tmp_path / "p.json", "--max-iters",
         "20"],
        ["train-encrypted", flows_file, tmp_path / "t.json"],
        ["eval", payload_model_file, corpus_file, "--report-out",
         tmp_path / "e.json"],
        ["eval", tree_model_file, flows_file, "--report-out",
         tmp_path / "f.json"],
        ["replay", "--packets", packets, "--blacklist", blacklist,
         "--payload-model", payload_model_file, "--flows", flows_file,
         "--tree-model", tree_model_file, "--report-out",
         tmp_path / "r.json", "--actions-out", tmp_path / "a.csv"],
        ["sample-trace", deltas, "--output", tmp_path / "s.csv"],
    ]
    src = str(Path(flowdpi.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    probe = ("import sys\n"
             "from flowdpi.cli import main\n"
             "code = main(sys.argv[1:])\n"
             "print(code, 'numpy.ma' in sys.modules)\n")
    for argv in commands:
        out = subprocess.run([sys.executable, "-c", probe, *map(str, argv)],
                             env=env, check=True, capture_output=True,
                             text=True, timeout=300).stdout
        assert out.splitlines()[-1] == "0 False", argv


class TestTrainEncrypted:
    def test_writes_tree_model(self, flows_file, tmp_path, capsys):
        out = tmp_path / "tree.json"
        assert main(["train-encrypted", str(flows_file), str(out)]) == 0
        assert persistence.peek_schema(out) == persistence.TREE_SCHEMA
        assert "mean" in capsys.readouterr().out

    def test_durations_whose_sum_overflows(self, tmp_path):
        # the split between the two longest flows is at the shorter
        # duration, with no overflow warning
        rows = ["src_ip,src_port,dst_ip,dst_port,proto,tls_version,ttl,"
                "duration,fwd_pkts,bwd_pkts,label"]
        rows += [f"10.0.0.{i},40000,10.0.9.9,443,TCP,TLS1.2,64,{duration},"
                 f"10,10,{label}" for i, (duration, label) in enumerate(
                     [("1.5e308", "benign"), ("1.7e308", "botnet"),
                      ("1.0", "benign"), ("2.0", "botnet")])]
        path, out = tmp_path / "flows.csv", tmp_path / "t.json"
        path.write_text("\n".join(rows) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["train-encrypted", str(path), str(out),
                         "--k-folds", "2"]) == 0
        thresholds = [node.threshold
                      for node in persistence.load_tree_model(out).nodes
                      if not node.is_leaf]
        assert 1.5e308 in thresholds

    def test_unlabeled_rows_are_data_error(self, tree_model_file, tmp_path,
                                           capsys):
        # no label column, and an empty label in row 4
        unlabeled = flow_csv_rows(np.random.default_rng(0), 5, 5,
                                  with_label=False)
        labeled = flow_csv_rows(np.random.default_rng(0), 5, 5)
        labeled[4] = labeled[4].rsplit(",", 1)[0] + ","
        for rows, row_no in ((unlabeled, 1), (labeled, 4)):
            path = tmp_path / "flows.csv"
            path.write_text("\n".join(rows) + "\n")
            for argv in (["train-encrypted", path, tmp_path / "t.json"],
                         ["eval", tree_model_file, path, "--report-out",
                          tmp_path / "r.json"]):
                assert main(list(map(str, argv))) == 2
                assert (f"data error: {path}: row {row_no}: no label"
                        in capsys.readouterr().err)

    def test_port_with_a_separator_is_data_error(self, tmp_path, capsys):
        rows = flow_csv_rows(np.random.default_rng(0), 5, 5)
        src_ip, src_port, rest = rows[3].split(",", 2)
        rows[3] = f"{src_ip},4_43,{rest}"
        path = tmp_path / "flows.csv"
        path.write_text("\n".join(rows) + "\n")
        assert main(["train-encrypted", str(path),
                     str(tmp_path / "t.json")]) == 2
        assert (f"data error: {path}: row 3: src_port '4_43' is not a whole "
                f"number in ASCII digits") in capsys.readouterr().err

    def test_row_with_a_field_too_many_is_data_error(self, tmp_path, capsys):
        rows = flow_csv_rows(np.random.default_rng(0), 5, 5)
        rows[4] += ",extra"
        path = tmp_path / "flows.csv"
        path.write_text("\n".join(rows) + "\n")
        assert main(["train-encrypted", str(path),
                     str(tmp_path / "t.json")]) == 2
        assert (f"data error: {path}: row 4: 12 fields where the header has "
                f"11") in capsys.readouterr().err


    @pytest.mark.parametrize("command", ["train-encrypted", "eval"])
    @pytest.mark.parametrize("column,value,reason", [
        (5, "x" * 200_000, "bad CSV: field larger than field limit (131072)"),
        (5, '"TLS1.2', "bad CSV: unexpected end of data"),
        (8, "1" + "0" * 400,
         "packet count fwd_pkts + bwd_pkts is too large for a float"),
    ], ids=["huge-field", "stray-quote", "huge-count"])
    def test_row_that_cannot_be_read_is_data_error(
            self, command, column, value, reason, tree_model_file, tmp_path,
            capsys):
        rows = flow_csv_rows(np.random.default_rng(0), 5, 5)
        fields = rows[3].split(",")
        fields[column] = value
        rows[3] = ",".join(fields)
        path = tmp_path / "flows.csv"
        path.write_text("\n".join(rows) + "\n")
        args = {"train-encrypted": [path, tmp_path / "t.json"],
                "eval": [tree_model_file, path,
                         "--report-out", tmp_path / "r.json"]}[command]
        assert main([command, *map(str, args)]) == 2
        assert (f"data error: {path}: row 3: {reason}"
                in capsys.readouterr().err)

    @pytest.mark.filterwarnings("error")
    def test_rate_past_the_largest_float_is_accepted(
            self, payload_model_file, tmp_path, capsys):
        """A zero-duration row whose packet count nears the largest float
        has an infinite rate; every command that reads flows takes it."""
        rows = flow_csv_rows(np.random.default_rng(6), 20, 10)
        fields = rows[5].split(",")
        fields[7:10] = ["0", str(int(sys.float_info.max) - 10), "5"]
        rows[5] = ",".join(fields)
        flows, tree_out = tmp_path / "flows.csv", tmp_path / "tree.json"
        flows.write_text("\n".join(rows) + "\n")
        packets, blacklist = tmp_path / "p.jsonl", tmp_path / "bl.txt"
        packets.write_text("")
        blacklist.write_text("")
        for argv in (
                ["train-encrypted", flows, tree_out],
                ["eval", tree_out, flows, "--report-out", tmp_path / "e.json"],
                ["replay", "--packets", packets, "--blacklist", blacklist,
                 "--payload-model", payload_model_file, "--flows", flows,
                 "--tree-model", tree_out, "--report-out",
                 tmp_path / "r.json", "--actions-out", tmp_path / "a.csv"]):
            assert main(list(map(str, argv))) == 0, capsys.readouterr().err
        report = json.loads((tmp_path / "r.json").read_text())
        assert report["encrypted_flows"] == 30 and report["errors"] == []


class TestEval:
    def test_payload_model_report_and_curves(self, payload_model_file,
                                             corpus_file, tmp_path, capsys):
        report_out = tmp_path / "report.json"
        assert main(["eval", str(payload_model_file), str(corpus_file),
                     "--report-out", str(report_out)]) == 0
        report = json.loads(report_out.read_text())
        assert sum(report["confusion"].values()) == 180
        assert report["metrics"]["accuracy"] >= 0.95
        assert report["auc"] >= 0.99
        roc = (tmp_path / "report.roc.csv").read_text().splitlines()
        assert roc[0] == "threshold,fpr,tpr"
        # repr round-trip: the curve in the CSV matches the report exactly
        parsed = [[float(c) for c in row.split(",")] for row in roc[1:]]
        assert parsed == report["roc_points"]
        pr = (tmp_path / "report.pr.csv").read_text().splitlines()
        assert pr[0] == "threshold,recall,precision"
        assert "auc=" in capsys.readouterr().out

    def test_tree_model_on_flow_csv(self, tree_model_file, flows_file,
                                    tmp_path):
        report_out = tmp_path / "report.json"
        assert main(["eval", str(tree_model_file), str(flows_file),
                     "--report-out", str(report_out)]) == 0
        report = json.loads(report_out.read_text())
        assert report["metrics"]["accuracy"] >= 0.95

    def test_tampered_model_dimension_is_model_error(self, payload_model_file,
                                                     corpus_file, tmp_path):
        doc = json.loads(payload_model_file.read_text())
        doc["weights"] = doc["weights"][:-1]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["eval", str(bad), str(corpus_file),
                     "--report-out", str(tmp_path / "r.json")]) == 3

    def test_tree_model_with_self_loop_is_model_error(self, tree_model_file,
                                                      flows_file, tmp_path,
                                                      capsys):
        doc = json.loads(tree_model_file.read_text())
        assert doc["nodes"][0]["class"] == -1
        doc["nodes"][0]["left"] = 0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["eval", str(bad), str(flows_file),
                     "--report-out", str(tmp_path / "r.json")]) == 3
        err = capsys.readouterr().err
        assert "tree node 0: left child 0 is not after the node" in err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("node, field, value, reason", [
        (0, "feature", 1.7, "tree node 0: 'feature' must be an integer: 1.7"),
        (0, "class", True, "tree node 0: 'class' must be an integer: True"),
        (1, "proba", None, "tree node 1: missing 'proba'"),
        (1, "threshold", "0.5",
         "tree node 1: 'threshold' must be a number: '0.5'"),
    ])
    def test_tree_model_field_of_wrong_type_is_model_error(
            self, tree_model_file, flows_file, tmp_path, capsys,
            node, field, value, reason):
        # these used to be coerced (1.7 -> feature 1, true -> class 1) or,
        # for a missing key, end in a traceback with exit 1
        doc = json.loads(tree_model_file.read_text())
        if value is None:
            del doc["nodes"][node][field]
        else:
            doc["nodes"][node][field] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["eval", str(bad), str(flows_file),
                     "--report-out", str(tmp_path / "r.json")]) == 3
        assert f"{bad}: {reason}" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value, reason", [
        ("nodes", {}, "'nodes' must be a list of node objects"),
        ("nodes", [7], "tree node 0: not a JSON object"),
        ("n_features", 8.0, "'n_features' must be an integer: 8.0"),
        ("max_depth", None, "missing 'max_depth'"),
    ])
    def test_tree_model_malformed_header_is_model_error(
            self, tree_model_file, flows_file, tmp_path, capsys,
            field, value, reason):
        doc = json.loads(tree_model_file.read_text())
        if value is None:
            del doc[field]
        else:
            doc[field] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["eval", str(bad), str(flows_file),
                     "--report-out", str(tmp_path / "r.json")]) == 3
        assert f"{bad}: {reason}" in capsys.readouterr().err

    @pytest.mark.parametrize("path, value, reason", [
        (("bias",), None, "missing 'bias'"),
        (("bias",), "0.5", "'bias' must be a number: '0.5'"),
        (("lambda",), True, "'lambda' must be a number: True"),
        (("weights",), {}, "'weights' must be a list: {}"),
        (("weights", 0), "1.5", "'weights'[0] must be a number: '1.5'"),
        (("featurizer",), [], "'featurizer' must be an object: []"),
        (("featurizer", "vocabulary", 0), 7,
         "featurizer: 'vocabulary' must hold only strings"),
        (("featurizer", "vocabulary", 1), "<0>",
         "featurizer: 'vocabulary' holds a repeated tri-gram"),
        (("featurizer", "idf", 0), "1.5",
         "featurizer: 'idf'[0] must be a number: '1.5'"),
        (("featurizer", "idf"), [1.5],
         "featurizer: 'idf' must hold 3 numbers, has 1"),
        (("featurizer", "l_min"), [0.0] * 4,
         "featurizer: 'l_min' must hold 5 numbers, has 4"),
        (("featurizer", "l_max", 4), None,
         "featurizer: 'l_max'[4] must be a number: None"),
        (("featurizer", "n_docs"), 120.0,
         "featurizer: 'n_docs' must be an integer: 120.0"),
        (("featurizer", "idf", 0), float("nan"),
         "featurizer: 'idf'[0] must be finite: nan"),
        (("featurizer", "l_max", 0), float("inf"),
         "featurizer: 'l_max'[0] must be finite: inf"),
        (("featurizer", "vocabulary", 1), "ab",
         "featurizer: 'vocabulary'[1] is not a tri-gram: 'ab'"),
        (("featurizer", "vocabulary", 2), "<2>x",
         "featurizer: 'vocabulary'[2] is not a tri-gram: '<2>x'"),
        (("featurizer", "vocabulary", 0), "",
         "featurizer: 'vocabulary'[0] is not a tri-gram: ''"),
    ])
    def test_payload_model_malformed_field_is_model_error(
            self, payload_model_file, corpus_file, tmp_path, capsys,
            path, value, reason):
        # a missing key used to end in a KeyError traceback with exit 1,
        # "idf": ["1.5", ...] used to be coerced to numbers, NaN and
        # Infinity used to load, and so did a vocabulary entry that no
        # payload's tri-gram could match
        doc = json.loads(payload_model_file.read_text())
        # a three-tri-gram vocabulary keeps the expected messages short
        featurizer = doc["featurizer"]
        featurizer["vocabulary"] = ["<0>", "<1>", "<2>"]
        featurizer["idf"] = featurizer["idf"][:3]
        doc["weights"] = doc["weights"][:3] + doc["weights"][-5:]
        *parents, last = path
        owner = doc
        for key in parents:
            owner = owner[key]
        if value is None and isinstance(owner, dict):
            del owner[last]
        else:
            owner[last] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["eval", str(bad), str(corpus_file),
                     "--report-out", str(tmp_path / "r.json")]) == 3
        assert f"{bad}: {reason}" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("name", ["absent.json", "a-directory"])
    def test_unreadable_model_file_is_data_error(self, name, corpus_file,
                                                 tmp_path, capsys):
        (tmp_path / "a-directory").mkdir()
        model = tmp_path / name
        assert main(["eval", str(model), str(corpus_file),
                     "--report-out", str(tmp_path / "r.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {model}: cannot read model file")

    def test_model_file_of_bad_json_is_model_error(self, corpus_file,
                                                   tmp_path, capsys):
        model = tmp_path / "model.json"
        model.write_bytes(b"\xff{")
        assert main(["eval", str(model), str(corpus_file),
                     "--report-out", str(tmp_path / "r.json")]) == 3
        assert f"{model}: bad JSON" in capsys.readouterr().err

    def test_model_nested_past_the_recursion_limit_is_model_error(
            self, corpus_file, tmp_path, capsys):
        model = tmp_path / "model.json"
        model.write_text('{"schema": ' + "[" * 200_000)
        with pytest.raises(persistence.ModelFormatError,
                           match="bad JSON: maximum recursion depth"):
            persistence.peek_schema(model)
        assert main(["eval", str(model), str(corpus_file),
                     "--report-out", str(tmp_path / "r.json")]) == 3
        assert (f"{model}: bad JSON: maximum recursion depth"
                in capsys.readouterr().err)

    def test_model_number_past_the_digit_limit_is_model_error(
            self, corpus_file, tmp_path, capsys):
        model = tmp_path / "model.json"
        model.write_text('{"schema": "flowdpi/payload-logistic/1", '
                         '"bias": 1' + "0" * 5000 + "}")
        assert main(["eval", str(model), str(corpus_file),
                     "--report-out", str(tmp_path / "r.json")]) == 3
        err = capsys.readouterr().err
        assert f"{model}: bad JSON: a number of more than 4300 digits" in err
        assert "set_int_max_str_digits" not in err

    def test_unknown_schema_is_model_error(self, corpus_file, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": "nonsense/9"}')
        assert main(["eval", str(bad), str(corpus_file),
                     "--report-out", str(tmp_path / "r.json")]) == 3


class TestReplay:
    def _write_streams(self, tmp_path):
        rng = np.random.default_rng(10)
        lines = []
        for i in range(3):
            payloads = [benign_payload(rng) for _ in range(60)]
            if i == 2:
                payloads[1] = malicious_payload(rng)
            for j, p in enumerate(payloads):
                lines.append(packet_to_json_line(
                    f"10.1.0.{i}", 40000 + i, "10.9.9.9", 80, "TCP",
                    float(j), p))
        packets = tmp_path / "packets.jsonl"
        packets.write_text("\n".join(lines) + "\n")
        blacklist = tmp_path / "blacklist.txt"
        blacklist.write_text("10.1.0.0/32\n")
        return packets, blacklist

    def _write_in_order(self, tmp_path):
        """``_write_streams`` in timestamp order: the flows interleave."""
        packets, blacklist = self._write_streams(tmp_path)
        lines = sorted(packets.read_text().splitlines(),
                       key=lambda line: json.loads(line)["ts"])
        packets.write_text("\n".join(lines) + "\n")
        return packets, blacklist, lines

    @staticmethod
    def _args(packets, blacklist, payload_model, tmp_path, *extra):
        return ["replay", "--packets", str(packets),
                "--blacklist", str(blacklist),
                "--payload-model", str(payload_model),
                "--report-out", str(tmp_path / "r.json"),
                "--actions-out", str(tmp_path / "a.csv"), *map(str, extra)]

    @staticmethod
    def _outputs(tmp_path):
        return ((tmp_path / "r.json").read_bytes(),
                (tmp_path / "a.csv").read_bytes())

    def test_end_to_end(self, payload_model_file, tree_model_file, tmp_path,
                        flows_file):
        packets, blacklist = self._write_streams(tmp_path)
        report_out = tmp_path / "report.json"
        actions_out = tmp_path / "actions.csv"
        assert main(["replay", "--packets", str(packets),
                     "--blacklist", str(blacklist),
                     "--payload-model", str(payload_model_file),
                     "--flows", str(flows_file),
                     "--tree-model", str(tree_model_file),
                     "--report-out", str(report_out),
                     "--actions-out", str(actions_out)]) == 0
        report = json.loads(report_out.read_text())
        assert report["flows_seen"] == 3
        assert report["blacklist_blocks"] == 1
        assert report["classifier_blocks"] >= 1
        assert report["encrypted_flows"] == 120
        actions = actions_out.read_text().splitlines()
        assert actions[0] == "ts,flow,kind,reason,score"
        assert len(actions) == 1 + len(report["actions"])

    def test_flows_without_tree_model_is_model_error(self, payload_model_file,
                                                     flows_file, tmp_path):
        packets, blacklist = self._write_streams(tmp_path)
        assert main(["replay", "--packets", str(packets),
                     "--blacklist", str(blacklist),
                     "--payload-model", str(payload_model_file),
                     "--flows", str(flows_file),
                     "--report-out", str(tmp_path / "r.json"),
                     "--actions-out", str(tmp_path / "a.csv")]) == 3

    def test_tree_model_without_flows_is_usage_error(
            self, payload_model_file, tree_model_file, tmp_path, capsys):
        packets, blacklist = self._write_streams(tmp_path)
        assert main(["replay", "--packets", str(packets),
                     "--blacklist", str(blacklist),
                     "--payload-model", str(payload_model_file),
                     "--tree-model", str(tree_model_file),
                     "--report-out", str(tmp_path / "r.json"),
                     "--actions-out", str(tmp_path / "a.csv")]) == 1
        assert "--flows" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("flag", ["--payload-model", "--tree-model"])
    def test_missing_model_file_is_data_error(self, flag, payload_model_file,
                                              tree_model_file, flows_file,
                                              tmp_path, capsys):
        packets, blacklist = self._write_streams(tmp_path)
        models = {"--payload-model": payload_model_file,
                  "--tree-model": tree_model_file}
        models[flag] = tmp_path / "absent.json"
        assert main(["replay", "--packets", str(packets),
                     "--blacklist", str(blacklist),
                     "--payload-model", str(models["--payload-model"]),
                     "--flows", str(flows_file),
                     "--tree-model", str(models["--tree-model"]),
                     "--report-out", str(tmp_path / "r.json"),
                     "--actions-out", str(tmp_path / "a.csv")]) == 2
        assert (f"data error: {tmp_path / 'absent.json'}: cannot read "
                f"model file") in capsys.readouterr().err

    def test_strict_mode_rejects_bad_packet_line(self, payload_model_file,
                                                 tmp_path):
        packets = tmp_path / "packets.jsonl"
        packets.write_text("garbage\n")
        blacklist = tmp_path / "blacklist.txt"
        blacklist.write_text("")
        args = ["replay", "--packets", str(packets),
                "--blacklist", str(blacklist),
                "--payload-model", str(payload_model_file),
                "--report-out", str(tmp_path / "r.json"),
                "--actions-out", str(tmp_path / "a.csv")]
        assert main(args) == 0   # lenient: logged, not fatal
        report = json.loads((tmp_path / "r.json").read_text())
        assert len(report["errors"]) == 1
        assert main(args + ["--strict"]) == 2

    def test_protocol_of_too_many_digits_rejects_only_its_line(
            self, payload_model_file, tmp_path):
        """A 5,000-digit protocol string is one bad packet line: reported,
        or fatal under --strict, but never a model/config error."""
        packets, blacklist = self._write_streams(tmp_path)
        bad = json.dumps({"src_ip": "10.2.0.1", "src_port": 1,
                          "dst_ip": "10.9.9.9", "dst_port": 80,
                          "proto": "9" * 5000, "ts": 0.5, "payload": "x"})
        packets.write_text(bad + "\n" + packets.read_text())
        args = self._args(packets, blacklist, payload_model_file, tmp_path)
        assert main(args) == 0
        [reason] = json.loads((tmp_path / "r.json").read_text())["errors"]
        assert reason.startswith("packet line 1: bad protocol: '999")
        assert reason.endswith("... (5002 characters)")   # not 5,016 long
        assert len(reason) < 160
        assert main(args + ["--strict"]) == 2

    def test_bad_blacklist_line_is_reported_or_fatal_under_strict(
            self, payload_model_file, tmp_path, capsys):
        packets, blacklist = self._write_streams(tmp_path)
        blacklist.write_text("# sources\n10.1.0.0/32\n10.0.0.0/+8\n")
        args = ["replay", "--packets", str(packets),
                "--blacklist", str(blacklist),
                "--payload-model", str(payload_model_file),
                "--report-out", str(tmp_path / "r.json"),
                "--actions-out", str(tmp_path / "a.csv")]
        assert main(args) == 0
        report = json.loads((tmp_path / "r.json").read_text())
        reason = (f"{blacklist}:3: prefix length '+8' is not a whole number "
                  f"in ASCII digits")
        assert report["errors"] == [reason]
        assert report["blacklist_blocks"] == 1
        capsys.readouterr()
        assert main(args + ["--strict"]) == 2
        assert f"data error: {reason}" in capsys.readouterr().err

    def test_bad_flow_row_drops_no_later_row(self, payload_model_file,
                                             tree_model_file, tmp_path,
                                             capsys):
        packets, blacklist = self._write_streams(tmp_path)
        rows = flow_csv_rows(np.random.default_rng(7), 6, 5)
        rows[4] = rows[4].replace(",TCP,", ",ICMP,")
        flows = tmp_path / "flows.csv"
        flows.write_text("\n".join(rows) + "\n")
        args = ["replay", "--packets", str(packets),
                "--blacklist", str(blacklist),
                "--payload-model", str(payload_model_file),
                "--flows", str(flows), "--tree-model", str(tree_model_file),
                "--report-out", str(tmp_path / "r.json"),
                "--actions-out", str(tmp_path / "a.csv")]
        assert main(args) == 0
        report = json.loads((tmp_path / "r.json").read_text())
        assert report["encrypted_flows"] == 10
        assert report["errors"] == ["flow csv: row 4: bad protocol: 'ICMP'"]
        capsys.readouterr()
        assert main(args + ["--strict"]) == 2
        assert ("data error: flow csv: row 4: bad protocol: 'ICMP'"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("separator", ["\u2028", "\u2029", "\x85"])
    def test_raw_line_separator_in_a_payload_is_inspected(
            self, separator, payload_model_file, tmp_path):
        # JSON allows these raw in a string; str.splitlines cuts at them
        packets, blacklist = self._write_streams(tmp_path)
        payload = f"<script>alert(1){separator}</script>"
        lines = [json.dumps({"src_ip": f"10.2.0.{i}", "src_port": 40000,
                             "dst_ip": "10.9.9.9", "dst_port": 80,
                             "proto": "TCP", "ts": float(i),
                             "payload": payload}, ensure_ascii=False)
                 for i in range(2)]
        packets.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["replay", "--packets", str(packets),
                     "--blacklist", str(blacklist),
                     "--payload-model", str(payload_model_file),
                     "--report-out", str(tmp_path / "r.json"),
                     "--actions-out", str(tmp_path / "a.csv")]) == 0
        report = json.loads((tmp_path / "r.json").read_text())
        assert report["errors"] == []
        assert report["packets_seen"] == report["packets_sampled"] == 2

    def test_line_separator_does_not_split_a_blacklist_line(
            self, payload_model_file, tmp_path):
        packets, blacklist = self._write_streams(tmp_path)
        entry = "10.1.0.2\u202810.1.0.0"   # lists neither address
        blacklist.write_text(entry + "\n", encoding="utf-8")
        assert main(["replay", "--packets", str(packets),
                     "--blacklist", str(blacklist),
                     "--payload-model", str(payload_model_file),
                     "--report-out", str(tmp_path / "r.json"),
                     "--actions-out", str(tmp_path / "a.csv")]) == 0
        report = json.loads((tmp_path / "r.json").read_text())
        assert report["errors"] == [
            f"{blacklist}:1: bad IPv4 address: {entry!r}"]
        assert report["blacklist_blocks"] == 0

    def test_reorder_window_restores_timestamp_order(
            self, payload_model_file, tmp_path, monkeypatch):
        packets, blacklist, lines = self._write_in_order(tmp_path)
        args = self._args(packets, blacklist, payload_model_file, tmp_path)
        assert main(args) == 0
        in_order = self._outputs(tmp_path)
        monkeypatch.setattr(engine, "REORDER_WINDOW", 0)
        assert main(args) == 0
        assert self._outputs(tmp_path) == in_order
        # swap neighbours: each packet arrives at most one place late
        lines[0::2], lines[1::2] = lines[1::2], lines[0::2]
        packets.write_text("\n".join(lines) + "\n")
        monkeypatch.setattr(engine, "REORDER_WINDOW", 1)
        assert main(args) == 0
        assert self._outputs(tmp_path) == in_order

    def test_late_packet_is_reported_or_fatal_under_strict(
            self, payload_model_file, tmp_path, capsys, monkeypatch):
        packets, blacklist, lines = self._write_in_order(tmp_path)
        lines[0], lines[3] = lines[3], lines[0]   # ts 1.0 before the 0.0s
        packets.write_text("\n".join(lines) + "\n")
        args = self._args(packets, blacklist, payload_model_file, tmp_path)
        monkeypatch.setattr(engine, "REORDER_WINDOW", 0)
        assert main(args) == 0
        report = json.loads((tmp_path / "r.json").read_text())
        late = [f"packet line {n}: late: ts 0.0 came after ts 1.0 left the "
                f"0-packet reorder window; inspected in arrival order"
                for n in (2, 3, 4)]
        assert report["errors"] == late
        assert report["packets_seen"] == len(lines)
        capsys.readouterr()
        assert main(args + ["--strict"]) == 2
        assert f"data error: {late[0]}\n" in capsys.readouterr().err

    def test_packet_nested_past_the_recursion_limit_is_rejected(
            self, payload_model_file, tmp_path):
        packets, blacklist = self._write_streams(tmp_path)
        good = packets.read_text().splitlines()[0]
        packets.write_text('{"ts": 0, "payload": ' + "[" * 200_000 + "\n"
                           + good + "\n")
        args = self._args(packets, blacklist, payload_model_file, tmp_path)
        assert main(args) == 0
        report = json.loads((tmp_path / "r.json").read_text())
        assert report["packets_seen"] == 1   # the line after it is inspected
        [error] = report["errors"]
        assert error.startswith("packet line 1: bad JSON: maximum recursion")
        assert main(args + ["--strict"]) == 2

    def test_model_nested_past_the_recursion_limit_is_model_error(
            self, tmp_path, capsys):
        packets, blacklist = self._write_streams(tmp_path)
        model = tmp_path / "model.json"
        model.write_text("[" * 200_000)
        assert main(self._args(packets, blacklist, model, tmp_path)) == 3
        assert (f"model/config error: {model}: bad JSON: maximum recursion"
                in capsys.readouterr().err)

    def test_packet_stream_that_is_not_utf8_is_data_error(
            self, payload_model_file, tmp_path, capsys):
        packets, blacklist = self._write_streams(tmp_path)
        packets.write_bytes(packets.read_bytes() + b'{"payload": "\xff"}\n')
        assert main(self._args(packets, blacklist, payload_model_file,
                               tmp_path)) == 2
        assert (f"data error: cannot read packet stream {packets}: 'utf-8' "
                f"codec can't decode" in capsys.readouterr().err)
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("column,value,reason", [
        (5, '"TLS1.2', "bad CSV: unexpected end of data"),
        (5, "x" * 200_000, "bad CSV: field larger than field limit (131072)"),
        (8, "1" + "0" * 400,
         "packet count fwd_pkts + bwd_pkts is too large for a float"),
    ], ids=["stray-quote", "huge-field", "huge-count"])
    def test_flow_row_that_cannot_be_read_drops_no_later_row(
            self, column, value, reason, payload_model_file, tree_model_file,
            tmp_path):
        # a stray quote used to swallow every later row, and a huge field
        # or count to end the replay with a traceback
        packets, blacklist = self._write_streams(tmp_path)
        rows = flow_csv_rows(np.random.default_rng(7), 10, 0)
        fields = rows[2].split(",")
        fields[column] = value
        rows[2] = ",".join(fields)
        flows = tmp_path / "flows.csv"
        flows.write_text("\n".join(rows) + "\n")
        assert main(self._args(packets, blacklist, payload_model_file,
                               tmp_path, "--flows", flows,
                               "--tree-model", tree_model_file)) == 0
        report = json.loads((tmp_path / "r.json").read_text())
        assert report["errors"] == [f"flow csv: row 2: {reason}"]
        assert report["encrypted_flows"] == 9


class TestSampleTrace:
    def test_matches_library_trace(self, tmp_path, capsys):
        deltas = [0, 1, 3, 2, 0, 5, 4, 1]
        inp = tmp_path / "deltas.csv"
        inp.write_text("delta\n" + "\n".join(map(str, deltas)) + "\n")
        assert main(["sample-trace", str(inp)]) == 0
        out_lines = capsys.readouterr().out.strip().splitlines()
        assert out_lines[0] == "step,w,delta,delta_hat,dw_next"
        expected = trace(SamplerConfig(), deltas)
        assert len(out_lines) == 1 + len(expected)
        for line, row in zip(out_lines[1:], expected):
            cells = line.split(",")
            assert int(cells[0]) == row.step
            assert int(cells[1]) == row.w
            assert int(cells[2]) == row.delta
            if row.predicted is None:
                assert cells[3] == ""
            else:
                assert float(cells[3]) == row.predicted

    def test_output_file_and_custom_bounds(self, tmp_path):
        inp = tmp_path / "deltas.csv"
        inp.write_text("0\n0\n0\n0\n")
        out = tmp_path / "trace.csv"
        assert main(["sample-trace", str(inp), "--output", str(out),
                     "--w-min", "6", "--w-max", "12"]) == 0
        rows = out.read_text().strip().splitlines()
        assert rows[1].startswith("0,6,0")   # the first window is w_min
        assert all(6 <= int(r.split(",")[1]) <= 12 for r in rows[1:])

    def test_headerless_and_empty_input(self, tmp_path, capsys):
        inp = tmp_path / "deltas.csv"
        inp.write_text("0\n1\n")
        assert main(["sample-trace", str(inp)]) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 3
        inp.write_text("")
        assert main(["sample-trace", str(inp)]) == 0
        assert capsys.readouterr().out.strip() == \
            "step,w,delta,delta_hat,dw_next"

    def test_non_integer_delta_is_data_error(self, tmp_path):
        inp = tmp_path / "deltas.csv"
        inp.write_text("delta\nx\n")
        assert main(["sample-trace", str(inp)]) == 2


    @pytest.mark.parametrize("cell,reason", [
        ("-3", "negative hit count '-3'"),
        ("1_0", "hit count '1_0' is not a whole number in ASCII digits"),
        ("\u0663", "hit count '\u0663' is not a whole number"),
        ("+2", "hit count '+2' is not a whole number"),
        ("2.0", "hit count '2.0' is not a whole number"),
    ])
    def test_bad_delta_is_rejected_with_line_and_reason(self, cell, reason,
                                                        tmp_path, capsys):
        inp = tmp_path / "deltas.csv"
        inp.write_text(f"delta\n1\n{cell}\n", encoding="utf-8")
        assert main(["sample-trace", str(inp)]) == 2
        assert f"data error: {inp}:3: {reason}" in capsys.readouterr().err

    def test_count_above_the_window_is_clamped(self, tmp_path, capsys):
        inp = tmp_path / "deltas.csv"
        inp.write_text("99\n")
        assert main(["sample-trace", str(inp)]) == 0
        assert capsys.readouterr().out.splitlines()[1] == "0,5,5,,"


# the options each command reads; every other tuning flag is a usage error
READS = {
    "train-payload": {"seed", "lambda", "lr", "max-iters", "k-folds",
                      "threshold"},
    "train-encrypted": {"seed", "k-folds"},
    "eval": {"threshold"},
    "replay": {"m", "w-min", "w-max", "history", "threshold", "strict",
               "count-blocking", "block-hit-count"},
    "sample-trace": {"m", "w-min", "w-max", "history"},
}
SWITCHES = {"strict", "count-blocking"}
IN_RANGE = {"seed": "3", "lambda": "0.01", "lr": "0.5", "max-iters": "50",
            "k-folds": "3", "m": "50", "w-min": "4", "w-max": "10",
            "history": "5", "threshold": "0.5", "block-hit-count": "2"}


@pytest.mark.parametrize("where", ["missing directory", "directory",
                                   "symlink loop"])
@pytest.mark.parametrize("output", [
    "payload model", "tree model", "eval report", "ROC curve", "PR curve",
    "replay report", "actions csv", "sample trace"])
def test_output_that_cannot_be_written_is_data_error(
        output, where, corpus_file, flows_file, payload_model_file,
        tree_model_file, tmp_path, capsys):
    """An output path in a directory that does not exist, that is a
    directory or that is a symlink loop ends the command with a data
    error naming the output and its path, not with a traceback."""
    bad = tmp_path / "absent" / "out"
    if where == "directory":
        bad = tmp_path / "taken"
        bad.mkdir()
    elif where == "symlink loop":
        bad = tmp_path / "loop"
        bad.symlink_to(tmp_path / "back")
        (tmp_path / "back").symlink_to(bad)
    ok = tmp_path / "ok"
    ok.mkdir()
    packets, blacklist = tmp_path / "packets.jsonl", tmp_path / "bl.txt"
    packets.write_text(packet_to_json_line("10.1.0.1", 40000, "10.9.9.9",
                                           80, "TCP", 1.0, "/a") + "\n")
    blacklist.write_text("")
    deltas = tmp_path / "deltas.csv"
    deltas.write_text("delta\n0\n")

    def replay(report, actions):
        return ["replay", "--packets", packets, "--blacklist", blacklist,
                "--payload-model", payload_model_file, "--report-out",
                report, "--actions-out", actions]

    evaluate = ["eval", payload_model_file, corpus_file, "--report-out"]
    argv = {
        "payload model": ["train-payload", corpus_file, bad,
                          "--max-iters", "5"],
        "tree model": ["train-encrypted", flows_file, bad],
        "eval report": [*evaluate, bad],
        "ROC curve": [*evaluate, ok / "r.json", "--roc-out", bad],
        "PR curve": [*evaluate, ok / "r.json", "--pr-out", bad],
        "replay report": replay(bad, ok / "a.csv"),
        "actions csv": replay(ok / "r.json", bad),
        "sample trace": ["sample-trace", deltas, "--output", bad],
    }[output]
    report = ok / "r.json"
    report.write_text("stale")
    assert main(list(map(str, argv))) == 2
    err = capsys.readouterr().err
    assert f"data error: cannot write {output} {bad}: " in err
    assert "Traceback" not in err
    # every output opens before any is written: a report beside an output
    # that cannot be written holds nothing new
    if output in ("ROC curve", "PR curve", "actions csv"):
        assert report.read_text() == ""


@pytest.mark.parametrize("first,second", [
    ("eval report", "ROC curve"), ("eval report", "PR curve"),
    ("ROC curve", "PR curve"), ("replay report", "actions csv")])
def test_two_outputs_that_name_one_file_are_a_usage_error(
        first, second, corpus_file, payload_model_file, tmp_path, capsys):
    """Two outputs that name one file, an existing file by two paths or a
    new one by paths that resolve alike, are a usage error before any
    output is opened; /dev/stdout named twice, here a pipe, takes both."""
    packets, blacklist = tmp_path / "packets.jsonl", tmp_path / "bl.txt"
    packets.write_text(packet_to_json_line("10.1.0.1", 40000, "10.9.9.9",
                                           80, "TCP", 1.0, "/a") + "\n")
    blacklist.write_text("")
    others = tmp_path / "others"
    others.mkdir()

    def command(one, two):
        paths = {first: one, second: two}
        if first == "replay report":
            return ["replay", "--packets", packets, "--blacklist", blacklist,
                    "--payload-model", payload_model_file, "--report-out",
                    one, "--actions-out", two]
        return ["eval", payload_model_file, corpus_file, "--report-out",
                paths.get("eval report", others / "e.json"),
                "--roc-out", paths.get("ROC curve", others / "roc.csv"),
                "--pr-out", paths.get("PR curve", others / "pr.csv")]

    taken = tmp_path / "taken.txt"
    taken.write_text("stale")
    os.link(taken, tmp_path / "link.txt")
    (tmp_path / "d").mkdir()
    fresh = tmp_path / "fresh.txt"
    for one, two in ((taken, tmp_path / "link.txt"),
                     (fresh, tmp_path / "d" / ".." / "fresh.txt")):
        assert main(list(map(str, command(one, two)))) == 1
        err = capsys.readouterr().err
        assert (f"usage error: the {first} and the {second} name one file: "
                f"{one} and {two}") in err
        assert taken.read_text() == "stale"
        assert not fresh.exists() and not any(others.iterdir())

    src = str(Path(flowdpi.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    done = subprocess.run(
        [sys.executable, "-m", "flowdpi.cli",
         *map(str, command("/dev/stdout", "/dev/stdout"))],
        env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    starts = {"eval report": '{\n "confusion"',
              "ROC curve": "threshold,fpr,tpr\n",
              "PR curve": "threshold,recall,precision\n",
              "replay report": '{\n "flows_seen"',
              "actions csv": "ts,flow,kind,reason,score\n"}
    assert starts[first] in done.stdout and starts[second] in done.stdout


def required_args(command, tmp_path):
    """Arguments that satisfy the parser of ``command``."""
    path = str(tmp_path / "unread")
    return {
        "train-payload": [path, path],
        "train-encrypted": [path, path],
        "eval": [path, path, "--report-out", path],
        "replay": ["--packets", path, "--blacklist", path, "--payload-model",
                   path, "--report-out", path, "--actions-out", path],
        "sample-trace": [path],
    }[command]


class TestUsageAndConfig:
    def test_unknown_flag_is_usage_error(self, corpus_file, tmp_path):
        assert main(["train-payload", str(corpus_file),
                     str(tmp_path / "m.json"), "--bogus"]) == 1

    def test_missing_subcommand_is_usage_error(self):
        assert main([]) == 1

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "train-payload" in capsys.readouterr().out

    def test_config_file_supplies_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "conf.ini"
        cfg.write_text("w-min = 7   # comment\nw_max = 9\n")
        inp = tmp_path / "deltas.csv"
        inp.write_text("0\n")
        assert main(["sample-trace", str(inp), "--config", str(cfg)]) == 0
        assert ",7,0," in capsys.readouterr().out.splitlines()[1]

    def test_cli_flag_overrides_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "conf.ini"
        cfg.write_text("w-min = 7\n")
        inp = tmp_path / "deltas.csv"
        inp.write_text("0\n")
        assert main(["sample-trace", str(inp), "--config", str(cfg),
                     "--w-min", "8"]) == 0
        assert ",8,0," in capsys.readouterr().out.splitlines()[1]

    def test_unknown_config_key_is_usage_error(self, tmp_path):
        cfg = tmp_path / "conf.ini"
        cfg.write_text("bogus = 1\n")
        inp = tmp_path / "deltas.csv"
        inp.write_text("0\n")
        assert main(["sample-trace", str(inp), "--config", str(cfg)]) == 1

    def test_missing_config_file_is_data_error(self, tmp_path):
        inp = tmp_path / "deltas.csv"
        inp.write_text("0\n")
        assert main(["sample-trace", str(inp),
                     "--config", str(tmp_path / "absent.ini")]) == 2

    def test_config_file_that_is_not_utf8_is_data_error(self, tmp_path,
                                                        capsys):
        cfg = tmp_path / "conf.ini"
        cfg.write_bytes(b"seed = 1\xff\n")
        with pytest.raises(cli.DataError, match=f"config file {cfg}: 'utf-8'"):
            cli._load_config_file(cfg)
        inp = tmp_path / "deltas.csv"
        inp.write_text("0\n")
        assert main(["sample-trace", str(inp), "--config", str(cfg)]) == 2
        assert (f"data error: cannot read config file {cfg}: 'utf-8' codec "
                f"can't decode" in capsys.readouterr().err)

    def test_lines_are_read_lazily_and_bad_utf8_names_the_file(
            self, tmp_path):
        path = tmp_path / "packets.jsonl"
        path.write_bytes("a\r\nb\rc\u2028d\n".encode() + b"x" * 10_000
                         + b"\n\xff\n")
        with cli._read_lines(path, "packet stream") as lines:
            assert [next(lines), next(lines)] == ["a", "b"]
            assert next(lines) == "c\u2028d"
            with pytest.raises(cli.DataError, match=(
                    f"cannot read packet stream {path}: 'utf-8' codec")):
                list(lines)

    @pytest.mark.parametrize("bad,reason", [
        (b"\xff\n", "byte 0xff on line 5 at byte offset {}: invalid start "
                    "byte"),
        (b"ok \xe2\x82", "bytes 0xe2 0x82 on line 5 at byte offset {}: "
                         "unexpected end of data"),
        (b"ok\r\xff\n", "byte 0xff on line 6 at byte offset {}: invalid "
                        "start byte"),
    ], ids=["bad-byte", "cut-short", "after-a-lone-cr"])
    def test_bad_utf8_names_its_line_and_offset_in_the_file(
            self, bad, reason, tmp_path):
        # past the decoder's first 8 KiB chunk, after "\r\n", "\r" and a
        # raw U+2028, which ends no line
        head = "a\r\nb\rc\u2028d\n".encode() + b"x" * 10_000 + b"\n"
        path = tmp_path / "packets.jsonl"
        path.write_bytes(head + bad)
        offset = len(head) + bad.index(b"\xe2" if b"\xe2" in bad else b"\xff")
        with cli._read_lines(path, "packet stream") as lines:
            with pytest.raises(cli.DataError) as err:
                list(lines)
        assert str(err.value) == (f"cannot read packet stream {path}: "
                                  f"'utf-8' codec can't decode "
                                  f"{reason.format(offset)}")

    def test_missing_file_message_names_the_file(self, tmp_path, capsys):
        inp = tmp_path / "absent.csv"
        assert main(["sample-trace", str(inp)]) == 2
        assert (f"data error: cannot read delta csv {inp}: No such file"
                in capsys.readouterr().err)

    def test_invalid_sampler_bounds_is_model_error(self, tmp_path):
        inp = tmp_path / "deltas.csv"
        inp.write_text("0\n")
        assert main(["sample-trace", str(inp),
                     "--w-min", "10", "--w-max", "5"]) == 3

    @pytest.mark.parametrize("value,strict", [
        ("true", True), ("On", True), ("1", True), ("yes", True),
        ("false", False), ("OFF", False), ("0", False), ("no", False)])
    def test_config_strict_words(self, value, strict, tmp_path):
        cfg = tmp_path / "conf.ini"
        cfg.write_text(f"strict = {value}\n")
        assert cli._load_config_file(cfg) == {"strict": strict}

    @pytest.mark.parametrize("value", ["ture", "", "2", "enabled"])
    def test_config_strict_other_word_is_usage_error(self, value, tmp_path,
                                                     capsys):
        cfg = tmp_path / "conf.ini"
        cfg.write_text(f"# header\nstrict = {value}\n")
        inp = tmp_path / "deltas.csv"
        inp.write_text("0\n")
        assert main(["sample-trace", str(inp), "--config", str(cfg)]) == 1
        assert f"{cfg}:2: strict: must be one of" in capsys.readouterr().err

    @pytest.mark.parametrize("line", [
        "seed = \u0664\u0662", "seed = 4_2", "w-min = \uff17",
        "lambda = 0_1", "threshold = \u0660.5", "lr = 1e\u0663"])
    def test_config_number_outside_ascii_digits_is_usage_error(
            self, line, tmp_path, capsys):
        cfg = tmp_path / "conf.ini"
        cfg.write_text(line + "\n", encoding="utf-8")
        inp = tmp_path / "deltas.csv"
        inp.write_text("0\n")
        assert main(["sample-trace", str(inp), "--config", str(cfg)]) == 1
        key = line.split("=")[0].strip().replace("-", "_")
        assert f"{cfg}:1: {key}: not an ASCII" in capsys.readouterr().err

    def test_config_numbers_in_ascii_are_read(self, tmp_path):
        cfg = tmp_path / "conf.ini"
        cfg.write_text("seed = 42\nlambda = 1e-2\nthreshold = 0.25\n")
        assert cli._load_config_file(cfg) == {"seed": 42, "lambda": 0.01,
                                              "threshold": 0.25}

    @pytest.mark.parametrize("flag,value", [
        ("--seed", "\u0664\u0662"), ("--max-iters", "1_000"),
        ("--lambda", "0_1"), ("--block-hit-count", "\u0663"),
        ("--block-hit-count", "1_0")])
    def test_flag_outside_ascii_digits_is_usage_error(self, flag, value,
                                                      tmp_path, capsys):
        command = next(c for c, flags in READS.items() if flag[2:] in flags)
        assert main([command, *required_args(command, tmp_path),
                     flag, value]) == 1
        assert f"argument {flag}: not an ASCII" in capsys.readouterr().err


def test_option_table_gives_each_command_what_it_reads():
    assert {command: {opt.flag for opt in cli.OPTIONS
                      if command in opt.commands}
            for command in READS} == READS
    # with --config on every command: 26 settable (command, option) pairs
    assert sum(len(flags) + 1 for flags in READS.values()) == 26


@pytest.mark.parametrize("command", sorted(READS))
@pytest.mark.parametrize("flag", sorted(set().union(*READS.values())))
def test_command_takes_only_the_options_it_reads(command, flag, tmp_path,
                                                 capsys):
    argv = [command, *required_args(command, tmp_path), f"--{flag}",
            *([] if flag in SWITCHES else [IN_RANGE[flag]])]
    if flag in READS[command]:
        args = cli.build_parser().parse_args(argv)
        expected = True if flag in SWITCHES else float(IN_RANGE[flag])
        assert getattr(args, flag.replace("-", "_")) == expected
    else:
        assert main(argv) == 1
        assert f"unrecognized arguments: --{flag}" in capsys.readouterr().err


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("flag,value", [
    ("lr", "0"), ("max-iters", "0"), ("k-folds", "1"), ("threshold", "0"),
    ("threshold", "1"), ("threshold", "nan"), ("lambda", "inf"),
    ("history", "2"), ("block-hit-count", "0"), ("seed", "-1")])
def test_out_of_range_value_is_usage_error(flag, value, source, tmp_path,
                                           capsys):
    command = next(c for c, flags in READS.items() if flag in flags)
    argv = [command, *required_args(command, tmp_path)]
    if source == "flag":
        where = f"argument --{flag}"
        argv += [f"--{flag}", value]
    else:
        cfg = tmp_path / "conf.ini"
        cfg.write_text(f"{flag} = {value}\n")
        where = f"{cfg}:1: {flag.replace('-', '_')}"
        argv += ["--config", str(cfg)]
    assert main(argv) == 1
    assert f"{where}: must be in " in capsys.readouterr().err


def test_one_config_file_serves_every_command(
        corpus_file, flows_file, payload_model_file, tree_model_file,
        tmp_path, capsys):
    """Each command reads its own keys from a file holding every key."""
    cfg = tmp_path / "shared.ini"
    cfg.write_text("".join(f"{flag} = {IN_RANGE.get(flag, 'yes')}\n"
                           for flag in sorted(set().union(*READS.values()))))
    packets = tmp_path / "packets.jsonl"
    packets.write_text("".join(
        packet_to_json_line("10.1.0.1", 40000, "10.9.9.9", 80, "TCP",
                            float(i), "/index.html") + "\n"
        for i in range(5)))
    blacklist = tmp_path / "blacklist.txt"
    blacklist.write_text("")
    deltas = tmp_path / "deltas.csv"
    deltas.write_text("0\n")
    model_out = tmp_path / "model.json"
    inputs = {"train-payload": [corpus_file, model_out],
              "train-encrypted": [flows_file, tmp_path / "tree.json"],
              "eval": [tree_model_file, flows_file,
                       "--report-out", tmp_path / "report.json"],
              "replay": ["--packets", packets, "--blacklist", blacklist,
                         "--payload-model", payload_model_file,
                         "--report-out", tmp_path / "replay.json",
                         "--actions-out", tmp_path / "actions.csv"],
              "sample-trace": [deltas]}
    for command, args in inputs.items():
        assert main([command, *map(str, args), "--config", str(cfg)]) == 0
    assert json.loads(model_out.read_text())["lambda"] == 0.01
    # sample-trace ran last: its first window is w-min from the file
    assert capsys.readouterr().out.splitlines()[-1] == "0,4,0,,"
