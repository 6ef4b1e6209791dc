import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "fockcorr.cli", *args],
        capture_output=True, text=True)
    return proc


def test_corr_eval_example():
    proc = run_cli("corr", "--algebra", "d", "--level", "1", "--lambda", "0",
                   "--n", "1", "--order", "3", "--mode", "eval", "--s", "2")
    assert proc.returncode == 0
    assert "q^0: Fraction(4, 3)" in proc.stdout  # 2/((q;q) Theta(4)) leading term


def test_corr_exact_c_example():
    proc = run_cli("corr", "--algebra", "c", "--level", "1", "--lambda", "1",
                   "--n", "1", "--order", "2", "--mode", "exact")
    assert proc.returncode == 0
    assert "q^1/2" in proc.stdout


def test_corr_qdim_route():
    proc = run_cli("corr", "--algebra", "b", "--level", "1/2",
                   "--n", "0", "--order", "2")
    assert proc.returncode == 0
    assert "q^1/16: Fraction(1, 1)" in proc.stdout


def test_oracle_partition_counts():
    proc = run_cli("oracle", "--pairs", "1", "--neutral", "0", "--sector", "ns",
                   "--ops", "none", "--charge", "0", "--order", "5")
    assert proc.returncode == 0
    for n, p in enumerate([1, 1, 2, 3, 5]):
        assert f"q^{n}: Fraction({p}, 1)" in proc.stdout


def test_oracle_t_flag_square():
    ok = run_cli("oracle", "--pairs", "1", "--sector", "ns",
                 "--ops", "D,t=4", "--order", "2")
    assert ok.returncode == 0
    bad = run_cli("oracle", "--pairs", "1", "--sector", "ns",
                  "--ops", "D,t=2", "--order", "2")
    assert bad.returncode == 2  # 2 is not a rational square


def test_oracle_t_flag_large_square():
    # a 300-digit t is far beyond float precision; t= must match the s= run
    s = 10 ** 150 - 3
    via_t = run_cli("oracle", "--pairs", "1", "--sector", "ns",
                    "--ops", f"D,t={s * s}", "--order", "2")
    via_s = run_cli("oracle", "--pairs", "1", "--sector", "ns",
                    "--ops", f"D,s={s}", "--order", "2")
    assert len(str(s * s)) == 300
    assert via_t.returncode == 0, via_t.stderr
    assert via_t.stdout == via_s.stdout


def test_corr_and_oracle_outputs_diff_cleanly():
    corr = run_cli("corr", "--algebra", "d", "--level", "1", "--lambda", "0",
                   "--n", "1", "--order", "3", "--mode", "eval", "--s", "2")
    oracle = run_cli("oracle", "--pairs", "1", "--sector", "ns",
                     "--ops", "D,s=2", "--charge", "0", "--order", "3")
    assert corr.returncode == 0 and oracle.returncode == 0
    assert corr.stdout == oracle.stdout


def test_determinism_byte_identical():
    args = ("corr", "--algebra", "b", "--level", "3/2", "--lambda", "1",
            "--n", "1", "--order", "3", "--mode", "eval", "--s", "2", "--json")
    a = run_cli(*args)
    b = run_cli(*args)
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_json_schema():
    proc = run_cli("qdim", "--algebra", "c", "--level", "1", "--lambda", "1",
                   "--order", "4", "--json")
    assert proc.returncode == 0
    blob = json.loads(proc.stdout)
    assert blob["schema"] == "fock-correlators/1"
    assert blob["mode"] == "rational"
    assert blob["trunc"] == "4"
    assert blob["terms"][0]["q"] == "1/2"


def test_exit_code_bad_flags():
    proc = run_cli("corr", "--algebra", "x", "--level", "1", "--n", "1",
                   "--order", "2")
    assert proc.returncode == 2
    proc = run_cli("verify", "no-such-identity")
    assert proc.returncode == 2


def test_exit_code_pole():
    proc = run_cli("corr", "--algebra", "d", "--level", "1", "--lambda", "0",
                   "--n", "1", "--order", "2", "--mode", "eval", "--s", "1")
    assert proc.returncode == 3
    proc = run_cli("corr", "--algebra", "d", "--level", "1", "--lambda", "0",
                   "--n", "2", "--order", "2", "--mode", "eval", "--s", "2,1/2")
    assert proc.returncode == 3


def test_exit_code_resource():
    proc = run_cli("oracle", "--pairs", "2", "--sector", "ns", "--ops", "none",
                   "--order", "8", "--max-states", "40")
    assert proc.returncode == 4


def test_exit_code_internal_check(monkeypatch, capsys):
    # two forms of one q-dimension that disagree are a failed verification
    from fockcorr import cli, correlators
    product_form = correlators.weyl_sum_product_form
    monkeypatch.setattr(correlators, "weyl_sum_product_form",
                        lambda *args: product_form(*args) + 1)
    argv = ["qdim", "--algebra", "d", "--level", "1", "--order", "3"]
    assert cli.main(argv) == 1
    assert "verification failure" in capsys.readouterr().err


def test_verify_pass_and_list():
    proc = run_cli("verify", "weyl-lemma", "--type", "B", "--l", "2",
                   "--order", "10")
    assert proc.returncode == 0
    assert "[pass]" in proc.stdout
    proc = run_cli("list-identities")
    assert proc.returncode == 0
    for key in ("jacobi-z", "howe-D", "rec-b-half", "qdim-consistency"):
        assert key in proc.stdout


@pytest.mark.parametrize("argv", [
    ["weyl-denom-B", "--l", "-3"],
    ["weyl-denom-D", "--l", "0"],
    ["shift-sym", "--kmax", "-1"],
    ["oracle-a1", "--mmax", "-1"],
    ["weyl-lemma", "--count", "0"],
])
def test_verify_that_checks_nothing_is_a_usage_error(argv, capsys):
    from fockcorr import cli
    assert cli.main(["verify", *argv]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:")


def test_verify_weyl_lemma_reports_only_the_requested_rank(capsys):
    from fockcorr import cli
    assert cli.main(["verify", "weyl-lemma", "--l", "0", "--count", "1"]) == 0
    out = capsys.readouterr().out
    assert "l=0 " in out and "1..4" not in out


def test_verify_with_s_values():
    proc = run_cli("verify", "howe-D", "--l", "1", "--n", "1", "--order", "6",
                   "--s", "2")
    assert proc.returncode == 0
    assert "[pass]" in proc.stdout


def test_verify_cor_b_exact():
    proc = run_cli("verify", "cor-b", "--order", "8", "--mode", "exact")
    assert proc.returncode == 0
    assert "[pass]" in proc.stdout


def test_cache_dir_round_trip(tmp_path):
    cache = str(tmp_path / "cache")
    args = ("--cache-dir", cache, "corr", "--algebra", "d", "--level", "3/2",
            "--lambda", "1", "--n", "1", "--order", "3", "--mode", "eval",
            "--s", "2")
    first = run_cli(*args)
    assert first.returncode == 0
    files = list((tmp_path / "cache").glob("*.json"))
    assert files
    second = run_cli(*args)
    assert second.stdout == first.stdout


def test_cache_dir_truncated_blob_is_recomputed(tmp_path):
    cache = tmp_path / "cache"
    args = ("--cache-dir", str(cache), "corr", "--algebra", "d", "--level", "1",
            "--lambda", "0", "--n", "1", "--order", "3", "--mode", "eval",
            "--s", "2")
    first = run_cli(*args)
    assert first.returncode == 0
    (blob,) = cache.glob("*.json")
    good = blob.read_text()
    blob.write_text(good[: len(good) // 2])
    second = run_cli(*args)
    assert second.returncode == 0, second.stderr
    assert second.stdout == first.stdout
    assert blob.read_text() == good


def _unknown_variable(blob):
    blob["terms"][0]["coeff"]["num"] = [{"exps": {"zz": 3}, "coeff": "1"}]
    return blob


# a blob that decodes over another ring: the rational series 7 + O(q^2)
OTHER_RING = {"schema": "fock-correlators/1", "mode": "rational", "vars": [],
              "trunc": "2", "terms": [{"q": "0", "coeff": "7"}]}


def _list_exponents(blob):
    blob["terms"][0]["coeff"]["num"][0]["exps"] = []
    return blob


def _infinite_trunc(blob):
    blob["trunc"] = float("inf")  # json writes Infinity and reads it back
    return blob


def _repeated_q(blob):
    # a second entry for the lowest q exponent, which a dict would keep
    blob["terms"].append({"q": blob["terms"][0]["q"],
                          "coeff": {"num": [{"exps": {}, "coeff": "7"}],
                                    "den": [{"exps": {}, "coeff": "1"}]}})
    return blob


def _repeated_exponents(blob):
    num = blob["terms"][-1]["coeff"]["num"]
    num.append({"exps": dict(num[0]["exps"]), "coeff": "5"})
    return blob


def _exponents_as(convert):
    # every exponent of the first numerator term, as another JSON type
    def corrupt(blob):
        mono = blob["terms"][0]["coeff"]["num"][0]
        mono["exps"] = {v: convert(k) for v, k in mono["exps"].items()}
        return blob
    return corrupt


def _zero_coefficient(blob):
    # an extra term at an unused exponent, with coefficient 0
    blob["terms"][0]["coeff"]["num"].append({"exps": {blob["vars"][0]: 99},
                                             "coeff": "0"})
    return blob


@pytest.mark.parametrize("corrupt", [_unknown_variable, _list_exponents,
                                     _infinite_trunc, _repeated_q,
                                     _repeated_exponents, _exponents_as(bool),
                                     _exponents_as(float), _exponents_as(str),
                                     _zero_coefficient, lambda blob: {},
                                     lambda blob: [], lambda blob: OTHER_RING],
                         ids=["unknown-variable", "list-exponents",
                              "infinite-trunc", "repeated-q",
                              "repeated-exponents", "bool-exponent",
                              "float-exponent", "string-exponent",
                              "zero-coefficient", "empty-object", "list",
                              "other-ring"])
@pytest.mark.parametrize("level", ["1", "3/2"])
def test_cache_dir_corrupt_blob_is_recomputed(corrupt, level, tmp_path,
                                              monkeypatch, capsys):
    from fockcorr import cli, diskcache
    monkeypatch.setattr(diskcache, "_cache_dir", None)
    argv = ["--cache-dir", str(tmp_path), "corr", "--algebra", "d", "--level",
            level, "--lambda", "0", "--n", "1", "--order", "2", "--mode", "exact"]
    assert cli.main(argv) == 0
    expected = capsys.readouterr().out
    (path,) = tmp_path.glob("*.json")
    good = path.read_text()
    path.write_text(json.dumps(corrupt(json.loads(good))))
    assert cli.main(argv) == 0
    out = capsys.readouterr()
    assert out.out == expected and out.err == ""
    assert path.read_text() == good


def test_verify_writes_no_cache_blob(tmp_path, monkeypatch, capsys):
    from fockcorr import cli, diskcache
    monkeypatch.setattr(diskcache, "_cache_dir", None)
    argv = ["--cache-dir", str(tmp_path), "verify", "qdim-consistency",
            "--order", "4"]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out.startswith("[pass] qdim-consistency")
    assert list(tmp_path.glob("*.json")) == []


EVAL_CORR = ["corr", "--algebra", "d", "--level", "1", "--n", "1", "--order", "2",
             "--mode", "eval", "--s", "2"]


@pytest.mark.parametrize("below", [(), ("sub",)])
def test_unusable_cache_dir_is_a_usage_error(below, tmp_path, monkeypatch, capsys):
    from fockcorr import cli, diskcache
    monkeypatch.setattr(diskcache, "_cache_dir", None)
    regular = tmp_path / "regular"
    regular.write_text("")
    path = regular.joinpath(*below)  # the file itself, or a path under it
    assert cli.main(["--cache-dir", str(path)] + EVAL_CORR) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: cannot use cache directory")
    assert regular.read_text() == ""


def test_failed_cache_write_keeps_the_result(tmp_path, monkeypatch, capsys):
    import tempfile

    from fockcorr import cli, diskcache
    monkeypatch.setattr(diskcache, "_cache_dir", None)
    assert cli.main(EVAL_CORR) == 0
    expected = capsys.readouterr().out

    def no_space(*args, **kwargs):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(tempfile, "mkstemp", no_space)
    assert cli.main(["--cache-dir", str(tmp_path)] + EVAL_CORR) == 0
    out = capsys.readouterr()
    assert out.out == expected
    assert out.err == ""
    assert list(tmp_path.iterdir()) == []


def test_oracle_charge_sector_value():
    # charge-1 trace is (t+1/t)/2 q^{1/2} times the charge-0 one; at s=2 the
    # leading coefficient is (17/4)/2 * 4/3 = 17/6
    proc = run_cli("oracle", "--pairs", "1", "--sector", "ns",
                   "--ops", "D,s=2", "--charge", "1", "--order", "3")
    assert proc.returncode == 0
    assert "q^1/2: Fraction(17, 6)" in proc.stdout


def test_oracle_multi_op_t_flags():
    proc = run_cli("oracle", "--pairs", "1", "--sector", "ns",
                   "--ops", "D,t=4/1;D,t=9/1", "--charge", "0", "--order", "2")
    assert proc.returncode == 0
    direct = run_cli("oracle", "--pairs", "1", "--sector", "ns",
                     "--ops", "D,s=2;D,s=3", "--charge", "0", "--order", "2")
    assert proc.stdout == direct.stdout


def test_bad_lambda_exit_code():
    proc = run_cli("corr", "--algebra", "d", "--level", "2", "--lambda", "1,2",
                   "--n", "1", "--order", "2", "--mode", "eval", "--s", "2")
    assert proc.returncode == 2


def test_corr_type_a():
    proc = run_cli("corr", "--algebra", "a", "--level", "1", "--lambda", "2",
                   "--n", "1", "--order", "4", "--mode", "eval", "--s", "2")
    assert proc.returncode == 0
    assert "q^2: Fraction(32, 3)" in proc.stdout  # q^{m^2/2} t^m/(t^{1/2}-t^{-1/2})


def test_oracle_graded_output():
    proc = run_cli("oracle", "--pairs", "1", "--sector", "ns", "--ops", "none",
                   "--order", "2", "--graded", "--json")
    assert proc.returncode == 0
    blob = json.loads(proc.stdout)
    assert blob["mode"] == "laurent"
    assert blob["vars"] == ["z1"]


def test_parser_is_built_once_and_main_keeps_no_state(capsys):
    from fockcorr import cli
    assert cli.build_parser() is cli.build_parser()
    argv = ["qdim", "--algebra", "c", "--level", "1", "--lambda", "1", "--order", "3"]
    assert cli.main(argv + ["--json"]) == 0
    assert json.loads(capsys.readouterr().out)["schema"] == "fock-correlators/1"
    assert cli.main(argv) == 0
    assert capsys.readouterr().out.startswith("# mode=rational\n")


def test_every_registry_entry_binds_the_verify_overrides(monkeypatch, capsys):
    import inspect

    from fockcorr import cli, identities
    seen = {}

    def fake_run(identity_id, **kwargs):
        seen[identity_id] = kwargs
        return identities.Report(identity_id, {}, Fraction(3), True)

    monkeypatch.setattr(identities, "run", fake_run)
    flags = ["--order", "3", "--l", "1", "--n", "1", "--type", "B", "--s", "2",
             "--mode", "eval", "--seed", "1", "--count", "1", "--kmax", "1",
             "--mmax", "1"]
    for key, (fn, _) in identities.REGISTRY.items():
        assert cli.main(["verify", key, *flags]) == 0
        assert seen[key], key
        inspect.signature(fn).bind(**seen[key])
    capsys.readouterr()


def test_half_level_howe_default_order_and_override(capsys):
    from fockcorr import cli
    for key in ("howe-Dhalf", "howe-Bhalf"):
        assert cli.main(["verify", key]) == 0
        assert capsys.readouterr().out.rstrip().endswith("order<5")
        assert cli.main(["verify", key, "--order", "7"]) == 0
        assert capsys.readouterr().out.rstrip().endswith("order<7")


def _exit_code_table():
    """class name -> exit code, read from the table in ``errors``."""
    from fockcorr import errors
    table = {}
    for line in errors.__doc__.splitlines():
        parts = line.split()
        if len(parts) >= 2 and hasattr(errors, parts[0]) and parts[1].isdigit():
            table[parts[0]] = int(parts[1])
    return table


def _error_classes():
    from fockcorr import errors
    return sorted(name for name, obj in vars(errors).items()
                  if isinstance(obj, type) and issubclass(obj, errors.FockcorrError)
                  and obj is not errors.FockcorrError)


def test_exit_code_table_lists_every_error_class():
    assert set(_error_classes()) <= set(_exit_code_table())


@pytest.mark.parametrize("name", _error_classes())
def test_exit_code_of_each_error_class(name, monkeypatch, capsys):
    from fockcorr import cli, errors

    def raise_it(*args):
        raise getattr(errors, name)("raised by the test")

    monkeypatch.setattr(cli, "qdim", raise_it)
    argv = ["qdim", "--algebra", "d", "--level", "1", "--order", "3"]
    assert cli.main(argv) == _exit_code_table()[name]
    assert "raised by the test" in capsys.readouterr().err


@pytest.mark.parametrize("identity", ["rec-d-half", "rec-b-half", "graded-A",
                                      "graded-B", "howe-D"])
def test_verify_eval_needs_one_s_value_per_point(identity, capsys):
    from fockcorr import cli
    argv = ["verify", identity, "--n", "3", "--s", "2,3", "--mode", "eval"]
    assert cli.main(argv) == 2
    out = capsys.readouterr()
    assert "error: need one s-value per point" in out.err
    assert "Traceback" not in out.err
    assert out.out == ""


def test_render_text_prints_rational_coefficients_by_value():
    from fockcorr import cli
    from fockcorr.qseries import QSeries, RationalRing
    ring = RationalRing()
    as_int = QSeries(ring, {0: 3, 16: -1}, 32)
    as_fraction = QSeries(ring, {0: Fraction(3), 16: Fraction(-1)}, 32)
    assert cli.render_text(as_int) == cli.render_text(as_fraction)
    assert "q^0: Fraction(3, 1)" in cli.render_text(as_int)


@pytest.mark.parametrize("n, svals", [("2", "2"), ("3", "2,3")])
def test_corr_eval_too_few_s_values_is_a_usage_error(n, svals, capsys):
    from fockcorr import cli
    argv = ["corr", "--algebra", "d", "--level", "1", "--lambda", "0",
            "--n", n, "--order", "2", "--mode", "eval", "--s", svals]
    assert cli.main(argv) == 2
    out = capsys.readouterr()
    assert out.err == "error: need one s-value per point\n"
    assert out.out == ""


def test_corr_eval_extra_s_values_are_ignored(tmp_path, capsys):
    from fockcorr import cli
    argv = ["corr", "--algebra", "d", "--level", "1", "--lambda", "0",
            "--n", "1", "--order", "3", "--mode", "eval", "--s"]
    assert cli.main(argv + ["2"]) == 0
    exact_count = capsys.readouterr()
    assert cli.main(argv + ["2,3,1"]) == 0
    extra = capsys.readouterr()
    assert extra.out == exact_count.out
    assert extra.err == ""
    # the cache key holds only the s-values used, so both share one blob
    cached = ["--cache-dir", str(tmp_path)] + argv
    assert cli.main(cached + ["2"]) == 0
    assert cli.main(cached + ["2,3,1"]) == 0
    assert capsys.readouterr().out == exact_count.out * 2
    assert len(list(tmp_path.glob("*.json"))) == 1


def test_corr_exact_ignores_s_values(tmp_path, capsys):
    from fockcorr import cli
    argv = ["corr", "--algebra", "d", "--level", "1", "--lambda", "0",
            "--n", "1", "--order", "2", "--mode", "exact"]
    assert cli.main(argv) == 0
    plain = capsys.readouterr()
    # s = 1 is a pole, but exact mode never evaluates at s
    assert cli.main(argv + ["--s", "1"]) == 0
    with_s = capsys.readouterr()
    assert with_s.out == plain.out
    assert with_s.err == ""
    # the cache key holds no s-values in exact mode, so both share one blob
    cached = ["--cache-dir", str(tmp_path)] + argv
    assert cli.main(cached + ["--s", "2"]) == 0
    assert cli.main(cached + ["--s", "3"]) == 0
    assert capsys.readouterr().out == plain.out * 2
    assert len(list(tmp_path.glob("*.json"))) == 1


def test_uncaught_exception_has_its_own_exit_code(monkeypatch, capsys):
    from fockcorr import cli, errors

    def broken(*args):
        raise KeyError("raised by the test")

    monkeypatch.setattr(cli, "qdim", broken)
    argv = ["qdim", "--algebra", "d", "--level", "1", "--order", "3"]
    assert cli.main(argv) == 5
    out = capsys.readouterr()
    assert out.err == "internal error: KeyError: 'raised by the test'\n"
    assert out.out == ""
    rows = [line.split() for line in errors.__doc__.splitlines()]
    assert ["any", "other", "Exception", "5"] in [r[:4] for r in rows]


@pytest.mark.parametrize("buffered", [True, False])
def test_stdout_closed_by_reader_exits_quietly(buffered):
    # buffered, the write fails only when main flushes stdout
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)   # every write to stdout now fails with EPIPE
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "fockcorr.cli", "qdim", "--algebra", "d",
             "--level", "1", "--order", "3"],
            stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=60,
            env=env)
    finally:
        os.close(write_end)
    assert proc.stderr == ""
    assert proc.returncode == 141


ORACLE_NS2 = ["oracle", "--pairs", "2", "--sector", "ns", "--order", "2"]
CORR_EVAL2 = ["corr", "--algebra", "d", "--level", "1", "--n", "2",
              "--order", "2", "--mode", "eval"]


@pytest.mark.parametrize("head, option, value", [
    (ORACLE_NS2, "--charge", "-1,0"),
    (ORACLE_NS2, "--charge", "-,1/2"),
    (["oracle", "--pairs", "1", "--sector", "r", "--order", "2"],
     "--charge", "-1/2"),
    (CORR_EVAL2, "--s", "-2,3"),
    (["verify", "graded-A", "--n", "2", "--mode", "eval"], "--s", "-2,3"),
])
def test_list_value_starting_with_minus(head, option, value, capsys):
    from fockcorr import cli
    assert cli.main(head + [option, value]) == 0
    spaced = capsys.readouterr()
    assert cli.main(head + [f"{option}={value}"]) == 0
    joined = capsys.readouterr()
    assert spaced.out and spaced.out == joined.out
    assert spaced.err == joined.err == ""


def test_list_option_followed_by_an_option_still_lacks_its_value(capsys):
    from fockcorr import cli
    with pytest.raises(SystemExit) as exc:
        cli.main(CORR_EVAL2 + ["--s", "--json"])
    assert exc.value.code == 2
    assert "argument --s: expected one argument" in capsys.readouterr().err


@pytest.mark.parametrize("abbrev", ["--charg", "--ch", "--c"])
def test_abbreviated_list_option_takes_a_value_starting_with_minus(abbrev, capsys):
    # argparse resolves a unique prefix of --charge to it; so does the
    # rewrite that attaches a list value starting with '-'
    from fockcorr import cli
    assert cli.main(ORACLE_NS2 + [abbrev, "-1,0"]) == 0
    spaced = capsys.readouterr()
    assert cli.main(ORACLE_NS2 + ["--charge=-1,0"]) == 0
    joined = capsys.readouterr()
    assert spaced.out and spaced.out == joined.out
    assert spaced.err == joined.err == ""


def test_prefix_of_another_option_keeps_its_meaning(capsys):
    # in verify, --c abbreviates --count, not a list option
    from fockcorr import cli
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "graded-A", "--c", "-1,0"])
    assert exc.value.code == 2
    assert "argument --count: expected one argument" in capsys.readouterr().err


def _exit_code(argv):
    from fockcorr import cli
    try:
        return cli.main(argv)
    except SystemExit as exc:  # argparse's usage errors
        return exc.code


@pytest.mark.parametrize("argv", [
    CORR_EVAL2 + ["--s", "2/0,3"],
    ["verify", "howe-D", "--l", "1", "--n", "1", "--order", "3", "--s", "2/0"],
    ORACLE_NS2 + ["--charge", "1/0,0"],
    ORACLE_NS2 + ["--ops", "D,s=1/0"],
    ORACLE_NS2 + ["--ops", "D,t=x"],
    ["corr", "--algebra", "d", "--level", "1/0", "--n", "1", "--order", "2"],
    ["qdim", "--algebra", "d", "--level", "1", "--order", "2/0"],
])
def test_bad_rational_input_is_a_usage_error(argv, capsys):
    assert _exit_code(argv) == 2
    err = capsys.readouterr().err
    assert "not a rational: " in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    CORR_EVAL2 + ["--s", "2,0"],
    ["verify", "graded-A", "--n", "1", "--order", "3", "--mode", "eval", "--s", "0"],
    ["verify", "howe-D", "--l", "1", "--n", "1", "--order", "3", "--s", "0"],
    ["verify", "rec-d-half", "--n", "1", "--order", "2", "--mode", "eval", "--s", "-1"],
    ORACLE_NS2 + ["--ops", "D,s=0"],
])
def test_s_on_a_pole_exits_3_for_every_command(argv, capsys):
    assert _exit_code(argv) == 3
    assert capsys.readouterr().err.startswith("pole-guard violation: s = ")


@pytest.mark.parametrize("extra", [
    ["--s", "2,2"],
    ["--s", "2,1/2"],
    ["--s", "2,-1/2"],
    ["--n", "3", "--s", "2,3,6"],
], ids=["t1=t2", "t1*t2=1", "s1*s2=-1", "t1/(t2*t3)=1"])
def test_unit_product_on_a_pole_exits_3(extra, capsys):
    # a subset of the t^eps multiplies to 1, so a theta factor of f_bo
    # vanishes at q^0
    assert _exit_code(CORR_EVAL2 + extra) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == ("pole-guard violation: theta argument t = 1 "
                       "(vanishing leading term)\n")
