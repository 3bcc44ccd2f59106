"""CLI contract: exit codes, report schemas, byte-reproducibility."""

import hashlib
import json
import subprocess
import sys

import pytest

PKG = "cartansuper.cli"


def entry_env(unbuffered=None):
    """The caller's environment with PYTHONUNBUFFERED unset, or set to
    `unbuffered`."""
    import os

    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered is not None:
        env["PYTHONUNBUFFERED"] = unbuffered
    return env


def run_entry(*args, prelude=""):
    """`cli.run(args)` in a fresh interpreter with a buffered stdout, after
    the Python statements of prelude."""
    code = f"{prelude}\nfrom cartansuper.cli import run\nrun({list(args)!r})"
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          env=entry_env(), timeout=300)


def run_cli(*args, env_extra=None):
    import os

    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", PKG, *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )


def test_build_w4_json_has_64_basis_lines(tmp_path):
    out = tmp_path / "w4.json"
    res = run_cli("build", "--family", "W", "--n", "4", "--format", "json",
                  "--out", str(out))
    assert res.returncode == 0, res.stderr
    model = json.loads(out.read_text())
    assert len(model["basis"]) == 64
    assert list(model) == [
        "family", "n", "basis", "bracket", "parity", "degree", "weight", "cartan",
    ]


def test_build_text_has_one_line_per_basis_vector():
    res = run_cli("build", "--family", "W", "--n", "4")
    assert res.returncode == 0
    lines = [l for l in res.stdout.splitlines() if l and not l.startswith("#")]
    assert len(lines) == 64


def test_build_is_byte_identical_across_runs(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run_cli("build", "--family", "S", "--n", "4", "--format", "json", "--out", str(a))
    run_cli("build", "--family", "S", "--n", "4", "--format", "json", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


# sha256 of `build --format json --out` on the desk models, recorded before
# the bracket table moved onto the integer kernel: model bytes never change
DESK_MODEL_SHA256 = {
    ("W", 4): "d9610c4f12ae8ed2c4572f33f43eb01ae3f7d91907a0fccfac63c07c16b10032",
    ("S", 4): "58eb86ec2b3f0f567c34094b121e8a5bb41db51d4f37d28003f1e4be573be72e",
    ("Stilde", 4): "18d6f4d536e18760b0ffc4349079d40ced6a9245808769fc6f0b4c7eddaba36a",
    ("H", 5): "cca9d5b7530cfc13e4995cce168c997a85b4be14b25c7980cac7519bd22c7697",
    ("H", 6): "ded56ba3d6c7cd9230682b214b6f3ddd215ea2b05ae9fd16103873fcd752491e",
}


@pytest.mark.parametrize("family,n", list(DESK_MODEL_SHA256))
def test_desk_model_bytes_are_pinned(tmp_path, family, n):
    out = tmp_path / "model.json"
    res = run_cli("build", "--family", family, "--n", str(n), "--format", "json",
                  "--out", str(out))
    assert res.returncode == 0, res.stderr
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DESK_MODEL_SHA256[(family, n)]


def test_model_text_is_written_in_slices(tmp_path, monkeypatch, capsys):
    # the stream is never handed the whole text, and the bytes stay the pinned ones
    import builtins

    from cartansuper import cli

    writes = []

    def recording_open(*args, **kwargs):
        fh = builtins.open(*args, **kwargs)
        write = fh.write
        fh.write = lambda s: writes.append(len(s)) or write(s)
        return fh

    monkeypatch.setattr(cli, "_SLICE", 1000)
    monkeypatch.setattr(cli, "open", recording_open, raising=False)
    out = tmp_path / "h5.json"
    assert cli.main(["build", "--family", "H", "--n", "5", "--format", "json", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DESK_MODEL_SHA256[("H", 5)]
    assert len(writes) > 2 and max(writes) == 1000
    assert cli.main(["build", "--family", "H", "--n", "5", "--format", "json"]) == 0
    assert capsys.readouterr().out == out.read_text()


def test_build_rejects_odd_stilde():
    res = run_cli("build", "--family", "Stilde", "--n", "5")
    assert res.returncode == 2
    assert "even" in res.stderr


def test_build_rejects_small_h():
    res = run_cli("build", "--family", "H", "--n", "4")
    assert res.returncode == 2
    assert "n > 4" in res.stderr


def test_build_rejects_n_out_of_range():
    res = run_cli("build", "--family", "W", "--n", "0")
    assert res.returncode == 2
    assert "n must be in 1..63" in res.stderr


def test_build_out_into_missing_directory_exits_2(tmp_path):
    out = tmp_path / "missing" / "w4.json"
    res = run_cli("build", "--family", "W", "--n", "4", "--format", "json",
                  "--out", str(out))
    assert res.returncode == 2
    assert f"cannot write {out}" in res.stderr
    assert "internal error" not in res.stderr


def test_info_depth_ranges():
    res = run_cli("info", "--family", "W", "--n", "4")
    assert res.returncode == 0
    assert "[-1, 3]" in res.stdout
    res = run_cli("info", "--family", "H", "--n", "5")
    assert "[-1, 2]" in res.stdout


def test_info_json_payload():
    res = run_cli("info", "--family", "S", "--n", "4", "--format", "json")
    payload = json.loads(res.stdout)
    assert payload["schema_version"] == "1"
    assert payload["dim_L"] == 49
    assert payload["dim_Lprime"] == 50
    assert payload["dim_L0"] == 15
    assert payload["cartan_rank"] == 3


def test_info_reads_dim_lprime_from_the_closed_form(monkeypatch, capsys):
    from pathlib import Path

    from cartansuper import cli

    def refuse(*args, **kwargs):
        raise AssertionError("info built L'")

    monkeypatch.setattr(cli, "build_lprime", refuse)
    golden = Path(__file__).parent / "golden" / "info_h5.json"
    assert cli.main(["info", "--family", "H", "--n", "5", "--format", "json"]) == 0
    assert capsys.readouterr().out == golden.read_text()


def test_check_passes_on_h5():
    res = run_cli("check", "--family", "H", "--n", "5", "--format", "json")
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["axioms_ok"] is True
    assert payload["lemma_der_holds"] is True
    assert payload["transitive"] is True
    assert payload["dim_Der"] == 32


def test_check_on_model_file(tmp_path):
    model = tmp_path / "h5.json"
    run_cli("build", "--family", "H", "--n", "5", "--format", "json",
            "--out", str(model))
    res = run_cli("check", "--model", str(model))
    assert res.returncode == 0


def test_check_corrupt_model_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ this is not json")
    res = run_cli("check", "--model", str(bad))
    assert res.returncode == 2
    assert "error" in res.stderr


def compact(obj):
    """obj as `build` writes it, so that an edit is met where it was made."""
    return json.dumps(obj, separators=(",", ":"))


def test_check_zero_denominator_exits_2(tmp_path):
    model = tmp_path / "h5.json"
    run_cli("build", "--family", "H", "--n", "5", "--format", "json",
            "--out", str(model))
    obj = json.loads(model.read_text())
    i, j, entries = obj["bracket"][0]
    entries[0][1] = "1/0"
    model.write_text(compact(obj))
    res = run_cli("check", "--model", str(model))
    assert res.returncode == 2
    assert f"bracket ({i},{j}) differs" in res.stderr
    assert "internal error" not in res.stderr


def test_coefficient_not_written_as_build_writes_it_exits_2(tmp_path):
    model = tmp_path / "h5.json"
    run_cli("build", "--family", "H", "--n", "5", "--format", "json",
            "--out", str(model))
    obj = json.loads(model.read_text())
    i, j, entries = next(e for e in obj["bracket"] if any(c == "1/1" for _, c in e[2]))
    next(entry for entry in entries if entry[1] == "1/1")[1] = "2/2"
    model.write_text(compact(obj))
    res = run_cli("info", "--model", str(model))
    assert res.returncode == 2, (res.stdout, res.stderr)
    assert f"bracket ({i},{j})" in res.stderr
    assert "internal error" not in res.stderr


def test_duplicated_bracket_entry_exits_2(tmp_path):
    # the first copy is bogus and the second true: taking the last copy
    # would pass the constructor's check
    model = tmp_path / "h5.json"
    run_cli("build", "--family", "H", "--n", "5", "--format", "json",
            "--out", str(model))
    obj = json.loads(model.read_text())
    i, j, entries = obj["bracket"][0]
    obj["bracket"].insert(0, [i, j, [[entries[0][0], "7/1"]]])
    model.write_text(compact(obj))
    res = run_cli("info", "--model", str(model))
    assert res.returncode == 2, (res.stdout, res.stderr)
    assert f"bracket ({i},{j}) differs" in res.stderr
    assert "internal error" not in res.stderr


def test_model_must_match_family_and_n_flags(tmp_path):
    model = tmp_path / "h5.json"
    run_cli("build", "--family", "H", "--n", "5", "--format", "json",
            "--out", str(model))
    res = run_cli("info", "--family", "W", "--n", "4", "--model", str(model))
    assert res.returncode == 2
    assert "--family W does not match" in res.stderr
    res = run_cli("info", "--model", str(model), env_extra={"CARTANSUPER_N": "6"})
    assert res.returncode == 2
    assert "--n 6 does not match" in res.stderr
    res = run_cli("info", "--family", "H", "--n", "5", "--model", str(model))
    assert res.returncode == 0, res.stderr


@pytest.fixture(scope="module")
def w4_model(tmp_path_factory):
    path = tmp_path_factory.mktemp("w4") / "w4.json"
    res = run_cli("build", "--family", "W", "--n", "4", "--format", "json",
                  "--out", str(path))
    assert res.returncode == 0, res.stderr
    return json.loads(path.read_text())


def _swap_basis(obj):
    obj["basis"][1], obj["basis"][2] = obj["basis"][2], obj["basis"][1]
    return "basis[1]"


def _flip_parity(obj):
    obj["parity"][7] ^= 1
    return "parity[7]"


def _double_coefficient(obj):
    for i, j, entries in obj["bracket"]:
        for entry in entries:
            if entry[1] == "1/1":
                entry[1] = "2/1"
                return f"bracket ({i},{j})"
    raise AssertionError("no unit coefficient in W(4)")


def _extra_zero_bracket(obj):
    present = {(i, j) for i, j, _ in obj["bracket"]}
    dim = len(obj["basis"])
    i, j = next((i, j) for i in range(dim) for j in range(dim) if (i, j) not in present)
    obj["bracket"].append([i, j, [[0, "1/1"]]])
    return f"bracket ({i},{j})"


def _zero_coefficient(obj):
    i, j, entries = obj["bracket"][0]
    k = next(k for k in range(len(obj["basis"])) if k not in {e[0] for e in entries})
    entries.append([k, "0/1"])
    return f"bracket ({i},{j})"


def _drop_bracket(obj):
    i, j, _ = obj["bracket"].pop(len(obj["bracket"]) // 2)
    return f"bracket ({i},{j})"


def _shift_weight(obj):
    obj["weight"][9][0] += 1
    return "weight[9]"


def _shift_degree(obj):
    obj["degree"][9] += 1
    return "degree[9]"


def _edit_cartan(obj):
    obj["cartan"][0] = obj["cartan"][1]
    return "cartan[0]"


def _n_12(obj):
    obj["n"] = 12
    return "W(12) has dimension 49152"


def _n_40(obj):
    # refused by the closed-form dimension, before anything is built
    obj["n"] = 40
    return "family/n: W(40) has dimension 43980465111040, above the limit"


def _h4(obj):
    # H(4) is outside H's range: its Der L is larger than ad L'
    obj["family"] = "H"
    return "family/n: H requires n > 4"


def _n_true(obj):
    obj["n"] = True
    return "family/n"


def _n_float(obj):
    obj["n"] = float(obj["n"])
    return "family/n"


def _n_string(obj):
    obj["n"] = str(obj["n"])
    return "family/n"


def _parity_strings(obj):
    obj["parity"] = [str(p) for p in obj["parity"]]
    return "parity[0]"


def _negate(entries):
    k, c = entries[0]
    entries[0] = [k, c[1:] if c.startswith("-") else "-" + c]


def _flip_odd_mirror(obj):
    # [x1x2 d3, d1] with both rows odd, j > i: (i, j) stays as written
    j, i = obj["basis"].index("x1x2*d3"), obj["basis"].index("1*d1")
    assert j > i and obj["parity"][i] == obj["parity"][j] == 1
    _negate(next(e for a, b, e in obj["bracket"] if (a, b) == (j, i)))
    return f"bracket ({j},{i})"


def _flip_even_mirror(obj):
    # the first (j, i) with j > i and a row that is even
    parity = obj["parity"]
    j, i, entries = next(
        (a, b, e) for a, b, e in obj["bracket"] if a > b and not (parity[a] and parity[b])
    )
    _negate(entries)
    return f"bracket ({j},{i})"


def _extra_key(obj):
    # met where the written object ends
    obj["comment"] = "edited by hand"
    return "the end of the object differs"


def _repeat_family(obj):
    # the text starts {"family":"H","n":5,"family":"W","n":4,...; only the
    # first head is read, and the second is met where H(5)'s text has "basis"
    return "basis differs from the H(5) constructor", '{"family":"H","n":5,' + compact(obj)[1:]


# a model file is what `build` writes, byte for byte: the same object in
# another layout is refused at its head, or after its end
def _sorted_keys(obj):
    return "family/n", json.dumps(obj, indent=1, sort_keys=True)


def _reversed_keys(obj):
    return "family/n", json.dumps(dict(reversed(list(obj.items()))))


def _two_newlines(obj):
    return "text after the model differs", compact(obj) + "\n\n"


@pytest.mark.parametrize("tamper", [
    _swap_basis, _flip_parity, _double_coefficient, _extra_zero_bracket,
    _drop_bracket, _zero_coefficient, _flip_odd_mirror, _flip_even_mirror, _shift_weight,
    _shift_degree, _edit_cartan, _n_12, _n_40, _h4, _n_true, _n_float, _n_string,
    _parity_strings, _extra_key, _repeat_family, _sorted_keys, _reversed_keys, _two_newlines,
])
@pytest.mark.parametrize("command", ["certify", "check"])
def test_tampered_model_exits_2_naming_the_field(tmp_path, w4_model, tamper, command):
    obj = json.loads(json.dumps(w4_model))
    named = tamper(obj)
    text = compact(obj)
    if isinstance(named, tuple):  # a tamper that no dict can show writes the text
        named, text = named
    path = tmp_path / "tampered.json"
    path.write_text(text)
    res = run_cli(command, "--model", str(path))
    assert res.returncode == 2, (res.stdout, res.stderr)
    assert named in res.stderr
    assert "CERTIFIED" not in res.stdout
    assert "internal error" not in res.stderr


def _not_utf8(text):
    # one basis descriptor carries a Latin-1 byte
    return text.encode().replace(b'"1*d1"', b'"1*d1\xe9"', 1), "is not UTF-8"


def _nested_too_deeply(text):
    return b'{"a":' * 100_000, "family/n"


@pytest.mark.parametrize("tamper", [_not_utf8, _nested_too_deeply])
@pytest.mark.parametrize("command", ["certify", "check"])
def test_unreadable_model_text_exits_2(tmp_path, w4_model, tamper, command):
    data, message = tamper(json.dumps(w4_model))
    assert data != json.dumps(w4_model).encode()
    path = tmp_path / "tampered.json"
    path.write_bytes(data)
    res = run_cli(command, "--model", str(path))
    assert res.returncode == 2, (res.stdout, res.stderr)
    assert message in res.stderr
    assert "internal error" not in res.stderr


def test_model_file_of_a_larger_head_exits_2_before_the_bracket_pass(tmp_path, monkeypatch,
                                                                     capsys):
    # H(5)'s file with "n":5 edited to "n":11: its basis is compared with
    # H(11)'s descriptors, and it is refused before H(11)'s table is built
    from cartansuper import cli, families

    def no_brackets(*args, **kwargs):
        raise AssertionError("the bracket pass ran")

    model = tmp_path / "h5.json"
    assert cli.main(["build", "--family", "H", "--n", "5", "--format", "json",
                     "--out", str(model)]) == 0
    model.write_text(model.read_text().replace('"n":5,', '"n":11,', 1))
    monkeypatch.setattr(families, "_bracket_rows", no_brackets)
    assert cli.main(["info", "--model", str(model)]) == 2
    assert capsys.readouterr().err == "error: basis[5] differs from the H(11) constructor\n"


def test_check_missing_model_exits_2(tmp_path):
    res = run_cli("check", "--model", str(tmp_path / "missing.json"))
    assert res.returncode == 2


def test_certify_h5_certified_exit_zero():
    res = run_cli("certify", "--family", "H", "--n", "5", "--format", "json")
    assert res.returncode == 0, res.stderr
    payload = json.loads(res.stdout)
    assert payload["verdict"] == "CERTIFIED"
    assert payload["twolocal_verdict"] == "CERTIFIED"
    assert payload["dim_C"] == payload["dim_adLprime"] == 32
    assert payload["elapsed_ms"] is None
    assert payload["schema_version"] == "1"


def test_certify_reports_are_byte_identical():
    a = run_cli("certify", "--family", "H", "--n", "5", "--format", "json",
                "--seed", "5")
    b = run_cli("certify", "--family", "H", "--n", "5", "--format", "json",
                "--seed", "5")
    assert a.stdout == b.stdout


def test_certify_timings_flag_adds_elapsed():
    res = run_cli("certify", "--family", "H", "--n", "5", "--format", "json",
                  "--timings")
    payload = json.loads(res.stdout)
    assert isinstance(payload["elapsed_ms"], int)


def test_certify_budget_one_exits_3():
    res = run_cli("certify", "--family", "H", "--n", "5", "--budget", "1")
    assert res.returncode == 3
    assert "INCONCLUSIVE" in res.stdout


@pytest.mark.parametrize("args, env", [
    (("--budget", "-3"), None),
    (("--budget", "0"), None),
    ((), {"CARTANSUPER_BUDGET": "-1"}),
], ids=["flag-negative", "flag-zero", "env-negative"])
def test_certify_budget_below_one_exits_2(args, env):
    res = run_cli("certify", "--family", "H", "--n", "5", *args, env_extra=env)
    assert res.returncode == 2
    assert "--budget" in res.stderr
    assert res.stdout == ""


def test_env_overrides():
    res = run_cli("info", "--format", "json",
                  env_extra={"CARTANSUPER_FAMILY": "H", "CARTANSUPER_N": "5"})
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["family"] == "H" and payload["n"] == 5


def test_flag_beats_env():
    res = run_cli("info", "--family", "W", "--n", "4", "--format", "json",
                  env_extra={"CARTANSUPER_FAMILY": "H", "CARTANSUPER_N": "5"})
    payload = json.loads(res.stdout)
    assert payload["family"] == "W" and payload["n"] == 4


def test_missing_family_exits_2():
    res = run_cli("info")
    assert res.returncode == 2
    assert "family" in res.stderr


def test_bad_env_integer_exits_2():
    res = run_cli("info", env_extra={"CARTANSUPER_N": "four", "CARTANSUPER_FAMILY": "W"})
    assert res.returncode == 2
    assert "integer" in res.stderr


def test_golden_info_report():
    from pathlib import Path

    golden = Path(__file__).parent / "golden" / "info_h5.json"
    res = run_cli("info", "--family", "H", "--n", "5", "--format", "json")
    assert res.stdout.strip() == golden.read_text().strip()


def test_golden_info_report_on_w3():
    # W(3), dim 24, where Kac's list of the Cartan type superalgebras starts W
    from pathlib import Path

    golden = Path(__file__).parent / "golden" / "info_w3.json"
    res = run_cli("info", "--family", "W", "--n", "3", "--format", "json")
    assert res.returncode == 0, res.stderr
    assert res.stdout == golden.read_text()


def test_w5_model_file_gives_the_golden_reports(tmp_path):
    # a W model through the file reader, as CI runs it with the console script
    from pathlib import Path

    golden = Path(__file__).parent / "golden"
    model = tmp_path / "w5.json"
    res = run_cli("build", "--family", "W", "--n", "5", "--format", "json", "--out", str(model))
    assert res.returncode == 0, res.stderr
    for command in ("info", "check"):
        res = run_cli(command, "--model", str(model), "--format", "json")
        assert res.returncode == 0, res.stderr
        assert res.stdout == (golden / f"{command}_w5.json").read_text()


@pytest.mark.parametrize("command", ["check", "certify"])
@pytest.mark.parametrize("family,n", [("W", 4), ("H", 5)])
def test_check_and_certify_write_into_no_table_entry(family, n, command, monkeypatch, capsys):
    # the entries of L's and L''s tables are shared (`AlgebraModel`): a run
    # that wrote into one would change every bracket that shares it
    from cartansuper import cli

    def items(table):
        return [(key, list(w.items())) for key, w in table.items()]

    before = []
    build, build_lprime = cli.build, cli.build_lprime

    def build_spy(spec):
        A = build(spec)
        before.append((A.table, items(A.table)))
        return A

    def build_lprime_spy(A):
        P = build_lprime(A)
        before.append((P.ext.table, items(P.ext.table)))
        return P

    monkeypatch.setattr(cli, "build", build_spy)
    monkeypatch.setattr(cli, "build_lprime", build_lprime_spy)
    code = cli.main([command, "--family", family, "--n", str(n), "--format", "json"])
    capsys.readouterr()
    assert len(before) == 2
    for table, snapshot in before:
        assert items(table) == snapshot
    assert code == 0


# the desk models, whose goldens are the stdout that perfbench/expected.json
# stores for the same check job, H(7) and W(3)
@pytest.mark.parametrize("family,n", [
    ("W", 4), ("S", 4), ("Stilde", 4), ("H", 5), ("H", 6), ("H", 7), ("W", 3),
])
def test_golden_check_report(family, n):
    from pathlib import Path

    golden = Path(__file__).parent / "golden" / f"check_{family.lower()}{n}.json"
    res = run_cli("check", "--family", family, "--n", str(n), "--format", "json")
    assert res.returncode == 0, res.stderr
    assert res.stdout == golden.read_text()


@pytest.mark.parametrize("args, head", [
    # 161 KB of model, far more than a pipe holds: the writer is still
    # writing when the reader goes away after its first bytes
    (("build", "--family", "W", "--n", "5", "--format", "json"), b'{"family":"W"'),
    # the reader goes away before the report is written
    (("check", "--family", "H", "--n", "5"), b""),
])
def test_closed_stdout_is_not_an_error(args, head):
    # `cartansuper ... | head -1`: the command keeps its own exit code and
    # writes nothing to stderr, with a buffered stdout (whose rest `run`
    # flushes at exit) and with an unbuffered one
    for unbuffered in (None, "1"):
        # leaving the with block closes stderr and waits for the process
        with subprocess.Popen(
            [sys.executable, "-m", PKG, *args],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=entry_env(unbuffered),
        ) as proc:
            assert proc.stdout.read(len(head)) == head, unbuffered
            proc.stdout.close()
            assert proc.stderr.read() == b"", unbuffered
            assert proc.wait(timeout=300) == 0, unbuffered


# the desk models and H(7), each golden the stdout that
# perfbench/expected.json stores for the same certify job, and W(3)
@pytest.mark.parametrize("family,n", [
    ("H", 5), ("W", 4), ("S", 4), ("Stilde", 4), ("H", 6), ("H", 7), ("W", 3),
])
def test_golden_certify_report(family, n):
    from pathlib import Path

    golden = Path(__file__).parent / "golden" / f"certify_{family.lower()}{n}.json"
    res = run_cli("certify", "--family", family, "--n", str(n), "--seed", "0",
                  "--format", "json")
    assert res.stdout.strip() == golden.read_text().strip()


def test_golden_inconclusive_certify_report():
    # budget 67 on H(5): its 66 proof probes and one anchored probe leave a
    # residual, so the report pins the INCONCLUSIVE path and the probe
    # labels of a stage cut at the budget
    from pathlib import Path

    golden = Path(__file__).parent / "golden" / "certify_h5_budget67.json"
    res = run_cli("certify", "--family", "H", "--n", "5", "--budget", "67", "--seed", "0",
                  "--format", "json")
    assert res.returncode == 3, res.stderr
    assert json.loads(res.stdout)["dim_C"] == 42
    assert res.stdout == golden.read_text()


@pytest.mark.parametrize("extra, golden, verdict, code", [
    ((), "certify_h5.json", "CERTIFIED", 0),
    (("--budget", "67", "--seed", "0"), "certify_h5_budget67.json", "INCONCLUSIVE", 3),
], ids=["default", "budget67"])
def test_certify_makes_no_2local_spot_checks(extra, golden, verdict, code, monkeypatch, capsys):
    # the 2-local verdict is the local one by reduction; no pair is checked
    from pathlib import Path

    from cartansuper import cli, localcert

    calls = []

    def spy(*args):
        calls.append(args)
        raise AssertionError("certify called is_2local_at")

    monkeypatch.setattr(localcert, "is_2local_at", spy)
    code_got = cli.main(["certify", "--family", "H", "--n", "5", *extra, "--format", "json"])
    out = capsys.readouterr().out
    assert not calls
    assert code_got == code
    payload = json.loads(out)
    assert payload["twolocal_verdict"] == payload["verdict"] == verdict
    assert out == (Path(__file__).parent / "golden" / golden).read_text()


def test_certify_builds_no_stage_it_does_not_reach():
    # H(5) certifies in stage 2; stage 4 would hold 10**9 random probes if
    # it were built up front
    import os
    import time
    from pathlib import Path

    golden = Path(__file__).parent / "golden" / "certify_h5.json"
    start = time.monotonic()
    res = subprocess.run(
        [sys.executable, "-m", PKG, "certify", "--family", "H", "--n", "5",
         "--budget", str(10**9), "--seed", "0", "--format", "json"],
        capture_output=True, text=True, env=dict(os.environ), timeout=20,
    )
    assert res.returncode == 0, res.stderr
    assert time.monotonic() - start < 10
    assert res.stdout == golden.read_text()


@pytest.mark.parametrize("args", [("--family", "H"), ("--n", "5")])
def test_build_missing_flag_exits_2(args):
    res = run_cli("build", *args)
    assert res.returncode == 2
    assert "missing --family/--n" in res.stderr
    assert "internal error" not in res.stderr


@pytest.mark.parametrize("name, value", [("FORMAT", "xml"), ("FAMILY", "Q")])
def test_env_value_outside_the_choices_exits_2(name, value):
    # argparse checks choices on flags only, not on defaults from the environment
    res = run_cli("info", "--family", "H", "--n", "5",
                  env_extra={f"CARTANSUPER_{name}": value})
    assert res.returncode == 2
    assert f"CARTANSUPER_{name}" in res.stderr and repr(value) in res.stderr
    assert res.stdout == ""


def test_env_value_of_another_commands_flag_is_ignored():
    # info has no --budget, so CARTANSUPER_BUDGET is not read
    res = run_cli("info", "--family", "H", "--n", "5", "--format", "json",
                  env_extra={"CARTANSUPER_BUDGET": "x"})
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout)["dim_L"] == 30


def test_bad_env_value_of_the_running_commands_flag_exits_2():
    res = run_cli("certify", "--family", "H", "--n", "5",
                  env_extra={"CARTANSUPER_BUDGET": "x"})
    assert res.returncode == 2
    assert "CARTANSUPER_BUDGET" in res.stderr and "'x'" in res.stderr
    assert res.stdout == ""


# The flags each command line parses to, or the exit code and a phrase of
# the message (stderr on an error, stdout for help and --version); recorded
# from the argparse front end that the flag table replaced, with no
# CARTANSUPER_ variable set but the case's own.
FLAG_NAMES = {"command", "family", "n", "model", "out", "format", "seed", "budget", "timings"}
INFO = {"command": "info", "family": None, "n": None, "model": None, "out": None,
        "format": "text", "seed": 0}
PARSE_CASES = [
    ((), {}, 2, "the following arguments are required: command"),
    (("frob",), {}, 2, "argument command: invalid choice: 'frob'"),
    (("build", "--bogus"), {}, 2, "unrecognized arguments: --bogus"),
    (("build", "--model", "x"), {}, 2, "unrecognized arguments: --model x"),
    (("info", "--budget", "3"), {}, 2, "unrecognized arguments: --budget 3"),
    (("check", "--timings"), {}, 2, "unrecognized arguments: --timings"),
    (("info", "x"), {}, 2, "unrecognized arguments: x"),
    (("info", "--family", "X"), {}, 2, "argument --family: invalid choice: 'X'"),
    (("info", "--format", "xml"), {}, 2, "argument --format: invalid choice: 'xml'"),
    (("info", "--n", "four"), {}, 2, "argument --n: invalid int value: 'four'"),
    (("certify", "--seed", "x"), {}, 2, "argument --seed: invalid int value: 'x'"),
    (("certify", "--budget", "x"), {}, 2, "argument --budget: invalid int value: 'x'"),
    (("certify", "--timings=1"), {}, 2, "argument --timings: ignored explicit argument '1'"),
    (("info", "--n"), {}, 2, "argument --n: expected one argument"),
    (("info", "--out", "--n", "4"), {}, 2, "argument --out: expected one argument"),
    (("info", "--out", "-x"), {}, 2, "argument --out: expected one argument"),
    (("info", "--out=-x"), {}, 0, {**INFO, "out": "-x"}),
    (("info", "--out", "-"), {}, 0, {**INFO, "out": "-"}),
    (("info", "--n=5"), {}, 0, {**INFO, "n": 5}),
    (("info", "--n", "4", "--n", "5"), {}, 0, {**INFO, "n": 5}),
    (("info", "--fam", "W"), {}, 0, {**INFO, "family": "W"}),
    (("info", "--fo=json"), {}, 0, {**INFO, "format": "json"}),
    (("info", "--f", "W"), {}, 2, "ambiguous option: --f could match --family, --format"),
    (("build", "--family", "W", "--n", "-1"), {}, 2, "n must be in 1..63"),
    (("info", "--n", "4"), {"CARTANSUPER_N": "5", "CARTANSUPER_FAMILY": "H"}, 0,
     {**INFO, "family": "H", "n": 4}),
    (("build",), {}, 0,
     {"command": "build", "family": None, "n": None, "out": None, "format": "text", "seed": 0}),
    (("certify", "--family", "H", "--n", "5", "--timings", "--budget", "9", "--seed", "3",
      "--format", "json", "--out", "o", "--model", "m"), {}, 0,
     {"command": "certify", "family": "H", "n": 5, "model": "m", "out": "o", "format": "json",
      "seed": 3, "budget": 9, "timings": True}),
    (("--help",), {}, 0, "usage: cartansuper [-h] [--version] {build,info,check,certify} ..."),
    (("check", "--help"), {}, 0, "usage: cartansuper check [-h] [--family {W,S,Stilde,H}]"),
    (("info", "-h"), {}, 0, "usage: cartansuper info [-h]"),
    (("--version",), {}, 0, "0.1.0"),
    (("--vers",), {}, 0, "0.1.0"),
]


@pytest.mark.parametrize("argv, env, code, expected", PARSE_CASES, ids=[
    " ".join(argv) + (" +env" if env else "") or "(none)" for argv, env, _, _ in PARSE_CASES
])
def test_command_line_parses_as_recorded(argv, env, code, expected, monkeypatch, capsys):
    import os

    from cartansuper import cli

    for name in [name for name in os.environ if name.startswith("CARTANSUPER_")]:
        monkeypatch.delenv(name)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    exited = False
    try:
        args = cli.parse_args(list(argv))
        got = code if isinstance(expected, dict) else cli.main(list(argv))
    except SystemExit as exc:
        exited, got = True, exc.code
    out, err = capsys.readouterr()
    assert got == code, err
    if isinstance(expected, dict):
        assert {k: v for k, v in vars(args).items() if k in FLAG_NAMES} == expected
        assert out == err == ""
    else:
        assert expected in (out if code == 0 else err)
    if exited and code == 2:  # a usage error
        assert err.startswith("usage: cartansuper") and ": error: " in err


def test_internal_error_names_the_exception_type(monkeypatch, capsys):
    from cartansuper import cli

    def out_of_memory(*args, **kwargs):
        raise MemoryError()

    monkeypatch.setattr(cli, "build", out_of_memory)
    assert cli.main(["info", "--family", "H", "--n", "5"]) == 1
    assert capsys.readouterr().err == "internal error: MemoryError\n"


def test_build_check_and_certify_make_no_fraction_call():
    # the trusted path runs on ints: no call into fractions.py while the
    # commands run on the desk models
    import contextlib
    import fractions
    import io

    from cartansuper import cli

    calls = []

    def record(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == fractions.__file__:
            calls.append(frame.f_back.f_code.co_name)

    for command in (["build"], ["check", "--format", "json"], ["certify", "--format", "json"]):
        for family, n in (("W", 4), ("S", 4), ("Stilde", 4), ("H", 5), ("H", 6)):
            sys.setprofile(record)
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main([*command, "--family", family, "--n", str(n)])
            finally:
                sys.setprofile(None)
            assert code == 0
            assert not calls, (command[0], family, n, sorted(set(calls)))


def test_cli_import_loads_no_dataclasses(tmp_path):
    # every CLI run is a fresh process that pays this import; the modules
    # present before it (what site loads) are not counted.  No Fraction is
    # made on the trusted path, so neither the import nor a check or a
    # certify run loads fractions, with its decimal and numbers
    out = str(tmp_path / "report.json")
    code = (
        "import sys; before = set(sys.modules); import cartansuper.cli as cli; "
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
        "for command in ('check', 'certify'):\n"
        f"    assert cli.main([command, '--family', 'H', '--n', '5', '--out', {out!r}]) == 0\n"
        "    print(' '.join(sorted(set(sys.modules) - before)))"
    )
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=60)
    assert res.returncode == 0, res.stderr
    imported, after_check, after_certify = (set(line.split()) for line in res.stdout.splitlines())
    assert "cartansuper.cli" in imported
    assert not imported & {"dataclasses", "inspect", "ast", "dis", "tokenize"}
    for added in (imported, after_check, after_certify):
        assert not added & {"fractions", "decimal", "numbers"}
        # the command line is read from cli's own flag table
        assert not added & {"argparse", "gettext", "locale"}


def test_run_writes_the_pinned_model_to_a_buffered_pipe():
    # the model through `run` to a buffered pipe: the pinned bytes (those of
    # tests/test_slow.py's W(5) pin) and nothing on stderr
    res = run_entry("build", "--family", "W", "--n", "5", "--format", "json")
    assert res.returncode == 0, res.stderr
    assert res.stderr == b""
    assert len(res.stdout) == 161640
    assert hashlib.sha256(res.stdout).hexdigest() == (
        "0e970c160a6e44d051a6cc91dc570d827a330e725f9c343c2b58bc6b6d3a638c"
    )


def test_run_calls_the_atexit_handlers():
    # a handler registered before the run (a site hook, say) is not skipped,
    # and what it prints to the buffered stdout gets out
    prelude = "import atexit; atexit.register(print, 'atexit marker')"
    res = run_entry("info", "--family", "H", "--n", "5", "--format", "json", prelude=prelude)
    assert res.returncode == 0, res.stderr
    report, marker = res.stdout.decode().splitlines()
    assert json.loads(report)["dim_L"] == 30
    assert marker == "atexit marker"


RAISE_IN_BUILD = """
import cartansuper.cli as cli
def fail(*args, **kwargs):
    raise RuntimeError("planted")
cli.build = fail
"""


@pytest.mark.parametrize("args, prelude, code, err", [
    (("info", "--family", "H", "--n", "5"), "", 0, ""),
    # an internal error
    (("info", "--family", "H", "--n", "5"), RAISE_IN_BUILD, 1,
     "internal error: RuntimeError: planted\n"),
    (("build", "--family", "H"), "", 2, "error: missing --family/--n\n"),
    (("certify", "--family", "H", "--n", "5", "--budget", "67"), "", 3, ""),
    # a usage error's SystemExit leaves through the interpreter
    (("build", "--bogus"), "", 2, "unrecognized arguments: --bogus"),
], ids=["ok", "internal-error", "input-error", "inconclusive", "usage-error"])
def test_run_keeps_the_exit_codes(args, prelude, code, err):
    res = run_entry(*args, prelude=prelude)
    assert res.returncode == code, res.stderr
    stderr = res.stderr.decode()
    assert err in stderr if err else stderr == ""
    assert bool(res.stdout) == (code in (0, 3))


def test_benchmark_tracer_finds_every_name_it_wraps():
    # perfbench/child.py wraps layer functions by name and records a name
    # that is gone in `absent`, where its metrics then read as absent: a
    # rename or deletion in src/ shows here, not only in the benchmark
    import os
    from pathlib import Path

    root = Path(__file__).resolve().parent.parent
    code = (
        f"import sys; sys.path.insert(0, {str(root / 'perfbench')!r})\n"
        "import child\n"
        "tr = child.Tracer()\n"
        "child.install(tr)\n"
        "print(tr.absent)"
    )
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=60)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"
