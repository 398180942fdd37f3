import json
import os
import shutil
import subprocess
import sys

import pytest

from tensorsel import cli, interp, ir, rules, selector

from testkit import CORPUS, ROOT


def corpus(name):
    return str(CORPUS / f"{name}.sexp")


def run_cli(*argv):
    try:
        return cli.main(list(argv))
    except SystemExit as e:
        return e.code


class TestCheck:
    def test_clean_corpus_file(self, capsys):
        assert run_cli("check", corpus("matmul_vnni")) == 0
        assert "ok" in capsys.readouterr().out

    def test_non_utf8_file_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "u.sexp"
        bad.write_bytes(b"\xff\xfe(param x f32 4 mem)\n")
        assert run_cli("check", str(bad)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: ") and err.count("\n") == 1

    def test_stdout_closed_from_the_start(self, monkeypatch):
        monkeypatch.setattr(sys, "stdout", None)  # as `tensorsel check F >&-`
        assert run_cli("check", corpus("matmul_vnni")) == 0

    def test_truncated_file(self, tmp_path, capsys):
        bad = tmp_path / "t.sexp"
        bad.write_text("(param x bf16 4")
        assert run_cli("check", str(bad)) == 2

    def test_zero_lane_type_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "z.sexp"
        bad.write_text("(evaluate (cast (f32 0) (imm f32 1.0)))\n")
        assert run_cli("check", str(bad)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_lane_mismatch_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.sexp"
        bad.write_text("(param o f32 512 mem)\n"
                       "(store o (ramp (imm i32 0) (imm i32 1) 512) "
                       "(broadcast (imm f32 0.0) 256))\n")
        assert run_cli("check", str(bad)) == 1
        assert "lanes" in capsys.readouterr().out


    @pytest.mark.parametrize("command", ["check", "run", "select"])
    def test_param_length_below_one_exits_one(self, command, tmp_path, capsys):
        bad = tmp_path / "neg.sexp"
        bad.write_text("(param x f32 -3 mem)\n(param o f32 4 mem)\n"
                       "(store o (ramp (imm i32 0) (imm i32 1) 4) "
                       "(broadcast (imm f32 1.0) 4))\n")
        assert run_cli(command, str(bad)) == 1
        out = capsys.readouterr()
        lines = (out.out + out.err).splitlines()
        assert [ln for ln in lines if ln.startswith("error:")] == [
            "error: params: parameter 'x' of length -3"]


def _deep_program(depth, chain):
    """A program whose lists nest `depth` deep: a store of an add chain or
    of a chain of loads each indexing the next, or of either into an
    intermediate, which selection saturates."""
    e = "(imm i32 0)"
    for _ in range(depth - 2):
        e = f"(add {e} (imm i32 1))" if chain.startswith("add") else f"(load a (i32 1) {e})"
    dest = "(allocate t i32 1 mem)\n(store t" if chain.endswith("-into-t") else "(store out"
    return f"(param a i32 16 mem)\n(param out i32 1 mem)\n{dest} (imm i32 0) {e})\n"


class TestDeepNesting:
    COMMANDS = [["check"], ["run"], ["select"], ["difftest", "--trials", "2"]]

    @pytest.mark.parametrize("chain", ["add", "load", "add-into-t", "load-into-t"])
    @pytest.mark.parametrize("argv", COMMANDS, ids=lambda a: a[0])
    def test_max_depth_passes_every_command(self, argv, chain, tmp_path, capsys):
        src = tmp_path / "deep.sexp"
        src.write_text(_deep_program(ir.MAX_DEPTH, chain))
        assert run_cli(argv[0], str(src), *argv[1:]) == 0

    @pytest.mark.parametrize("chain", ["add", "load"])
    @pytest.mark.parametrize("argv", COMMANDS, ids=lambda a: a[0])
    def test_one_deeper_exits_two_with_one_error(self, argv, chain, tmp_path, capsys):
        src = tmp_path / "deep.sexp"
        src.write_text(_deep_program(ir.MAX_DEPTH + 1, chain))
        assert run_cli(argv[0], str(src), *argv[1:]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {src}: 3:") and err.count("\n") == 1
        assert f"deeper than {ir.MAX_DEPTH}" in err


def _matmul_program(a_lanes, b_lanes, m, n, a_tile, b_tile):
    """An AMX tile_matmul of A and B tiles (rows, cols) into an m x n zero
    tile, stored to C."""
    loads = " ".join(f"(call tile_load (var {buf}) (imm i32 0) (imm i32 {cols}) "
                     f"(imm i32 {rows}) (imm i32 {cols}))"
                     for buf, (rows, cols) in (("A", a_tile), ("B", b_tile)))
    return (f"(param A bf16 {a_lanes} mem)\n(param B bf16 {b_lanes} mem)\n"
            f"(param C f32 {m * n} mem)\n(store C (ramp (imm i32 0) (imm i32 1) {m * n}) "
            f"(amx2mem (call tile_matmul (call tile_zero (imm i32 {m}) (imm i32 {n})) "
            f"{loads})))\n")


MALFORMED_CALLS = {
    "buffer-is-immediate": (
        "(param A bf16 512 mem)\n(allocate t bf16 512 amx)\n"
        "(store t (ramp (imm i32 0) (imm i32 1) 512) (call tile_load (imm i32 0) "
        "(imm i32 0) (imm i32 32) (imm i32 16) (imm i32 32)))\n",
        "body[1].value: tile_load argument 0 must name a buffer"),
    "interleave-zero-ways": (
        "(param A f32 16 mem)\n(store A (ramp (imm i32 0) (imm i32 1) 16) "
        "(call KWayInterleave (imm i32 0) (imm i32 4) "
        "(load A (f32 16) (ramp (imm i32 0) (imm i32 1) 16))))\n",
        "body[0].value: KWayInterleave argument 0 must be an i32 immediate >= 1"),
    "negative-tile-size": (
        "(param A f32 16 mem)\n(store A (ramp (imm i32 0) (imm i32 1) 4) "
        "(call tile_zero (imm i32 2) (imm i32 -2)))\n",
        "body[0].value: tile_zero argument 1 must be an i32 immediate >= 1"),
    "stride-and-phases": (
        "(param A f32 16 mem)\n(store A (ramp (imm i32 0) (imm i32 1) 4) "
        "(call PolyphaseShuffle (var A) (imm i32 0) (imm i32 2) (imm i32 4) "
        "(imm i32 2) (imm i32 2)))\n",
        "body[0].value: PolyphaseShuffle phases 2 and stride 2 are exclusive"),
    "oversized-kernel-matrix": (
        "(param K f32 16 mem)\n(param A f32 16 mem)\n"
        "(store A (ramp (imm i32 0) (imm i32 1) 4) "
        "(call ConvolutionShuffle (var K) (imm i32 0) (imm i32 8000) (imm i32 5000)))\n",
        "body[0].value: ConvolutionShuffle: a 8000 x 5000 kernel matrix exceeds "
        "1048576 entries"),
    "matmul-lanes-fit-no-shape": (
        _matmul_program(480, 512, 16, 16, (16, 30), (16, 32)),
        "body[0].value.operand: tile_matmul: no (M,K,N) fits lanes A=480 B=512 C=256"),
    "matmul-shape-unregistered": (
        _matmul_program(256, 256, 8, 8, (8, 32), (16, 16)),
        "body[0].value: tile_matmul: shape amx 8x32x8 not registered"),
    "oversized-interleave": (
        "(param A f32 16 mem)\n(store A (ramp (imm i32 0) (imm i32 1) 4) "
        "(call KWayInterleave (imm i32 2) (imm i32 1) "
        "(ramp (imm i32 0) (imm i32 1) 2097152)))\n",
        "body[0].value: KWayInterleave: 2097152 rows of 1 exceed 1048576 entries"),
}


# calls that `run` fails on, which `check` once passed
CHECK_MISSES = {
    # a registered 8x32x8 shape would run; none is declared
    "unregistered-shape": _matmul_program(256, 256, 8, 8, (8, 32), (16, 16)),
}


class TestCheckImpliesRun:
    @pytest.mark.parametrize("case", CHECK_MISSES)
    def test_check_fails_what_run_fails(self, case, tmp_path, capsys):
        src = tmp_path / "p.sexp"
        src.write_text(CHECK_MISSES[case])
        assert run_cli("run", str(src)) == 1
        assert run_cli("check", str(src)) == 1


class TestMalformedCalls:
    @pytest.mark.parametrize("command", ["check", "run", "select"])
    @pytest.mark.parametrize("case", MALFORMED_CALLS)
    def test_exits_one_naming_the_argument(self, case, command, tmp_path, capsys):
        text, msg = MALFORMED_CALLS[case]
        bad = tmp_path / "bad.sexp"
        bad.write_text(text)
        assert run_cli(command, str(bad)) == 1
        out = capsys.readouterr()
        assert f"error: {msg}" in out.out + out.err


def _set_first(d, key, value):
    manifest = json.loads((d / "manifest.json").read_text())
    manifest["buffers"][0][key] = value
    (d / "manifest.json").write_text(json.dumps(manifest))


BROKEN_INPUT_DIRS = {
    "no-directory": lambda d: shutil.rmtree(d),
    "no-manifest": lambda d: (d / "manifest.json").unlink(),
    "no-bin": lambda d: (d / "K.bin").unlink(),
    "malformed-json": lambda d: (d / "manifest.json").write_text("{"),
    "not-a-manifest": lambda d: (d / "manifest.json").write_text("[1]"),
    "unknown-kind": lambda d: _set_first(d, "kind", "f64"),
    "list-kind": lambda d: _set_first(d, "kind", []),
    "null-length": lambda d: _set_first(d, "length", None),
    "bin-of-wrong-length": lambda d: (d / "K.bin").write_bytes(b"\0" * 6),
    "name-is-a-path": lambda d: (_set_first(d, "name", "../I"),
                                 (d / "I.bin").rename(d.parent / "I.bin")),
}


class TestRun:
    def test_seeded_run_is_deterministic(self, tmp_path, capsys):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run_cli("run", corpus("matmul_vnni"), "--seed", "1",
                       "-o", str(out1)) == 0
        assert run_cli("run", corpus("matmul_vnni"), "--seed", "1",
                       "-o", str(out2)) == 0
        for f in sorted(out1.iterdir()):
            assert f.read_bytes() == (out2 / f.name).read_bytes()

    def test_out_of_bounds_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "oob.sexp"
        bad.write_text("(param x f32 4 mem)\n(param o f32 8 mem)\n"
                       "(store o (ramp (imm i32 0) (imm i32 1) 8) "
                       "(load x (f32 8) (ramp (imm i32 0) (imm i32 1) 8)))\n")
        assert run_cli("run", str(bad), "--seed", "0") == 1
        assert "out of bounds" in capsys.readouterr().err

    def test_inputs_with_wrong_length(self, tmp_path, capsys):
        prog = ir.parse_program((CORPUS / "conv1d_k8.sexp").read_text())
        ins = interp.random_inputs(prog, 3)
        ins["K"] = interp.Buffer("f16", "mem", ins["K"].data[:4])
        interp.save_buffers(ins, tmp_path / "ins")
        assert run_cli("run", corpus("conv1d_k8"),
                       "--inputs", str(tmp_path / "ins")) == 1

    def test_inputs_with_wrong_kind(self, tmp_path, capsys):
        prog = ir.parse_program((CORPUS / "conv1d_k8.sexp").read_text())
        ins = interp.random_inputs(prog, 3)
        ins["K"] = interp.Buffer("f32", "mem", ins["K"].data)
        interp.save_buffers(ins, tmp_path / "ins")
        assert run_cli("run", corpus("conv1d_k8"),
                       "--inputs", str(tmp_path / "ins")) == 1
        out = capsys.readouterr()
        assert out.err == "error: input 'K' has kind f32, program declares f16\n"
        assert not out.out

    @pytest.mark.parametrize("breakage", BROKEN_INPUT_DIRS)
    def test_broken_input_dir_exits_two(self, breakage, tmp_path, capsys):
        prog = ir.parse_program((CORPUS / "conv1d_k8.sexp").read_text())
        ins = tmp_path / "ins"
        interp.save_buffers(interp.random_inputs(prog, 3), ins)
        BROKEN_INPUT_DIRS[breakage](ins)
        assert run_cli("run", corpus("conv1d_k8"), "--inputs", str(ins)) == 2
        out = capsys.readouterr()
        assert out.err.startswith("error: ") and out.err.count("\n") == 1
        assert not out.out

    def test_buffer_name_that_is_a_path_writes_nothing(self, tmp_path, capsys):
        prog = tmp_path / "p.sexp"
        prog.write_text("(param ../../escaped f32 4 mem)\n"
                        "(store ../../escaped (ramp (imm i32 0) (imm i32 1) 4) "
                        "(broadcast (imm f32 1.0) 4))\n")
        out = tmp_path / "a" / "b" / "out"
        assert run_cli("run", str(prog), "-o", str(out)) == 1
        assert "bad name '../../escaped'" in capsys.readouterr().err
        assert not (tmp_path / "a" / "escaped.bin").exists() and not out.exists()

    def test_output_onto_a_file_exits_two(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("")
        assert run_cli("run", corpus("matmul_vnni"), "-o", str(taken)) == 2
        out = capsys.readouterr()
        assert out.err.startswith("error: ") and out.err.count("\n") == 1
        assert not out.out

    def test_roundtrip_through_input_dir(self, tmp_path):
        prog = ir.parse_program((CORPUS / "conv1d_k8.sexp").read_text())
        ins = interp.random_inputs(prog, 3)
        interp.save_buffers(ins, tmp_path / "ins")
        assert run_cli("run", corpus("conv1d_k8"), "--inputs",
                       str(tmp_path / "ins"), "-o", str(tmp_path / "out")) == 0
        back = interp.load_buffers(tmp_path / "out")
        direct = interp.run_program(prog, interp.random_inputs(prog, 3))
        assert back["output"].data.tobytes() == direct["output"].data.tobytes()


class TestSelect:
    def test_standard_matmul_emits_swizzle(self, tmp_path, capsys):
        out = tmp_path / "low.sexp"
        assert run_cli("select", corpus("matmul_standard"), "--target", "amx",
                       "-o", str(out)) == 0
        text = out.read_text()
        assert "tile_matmul" in text
        assert "shuffle" in text  # the desugared KWayInterleave pack

    def test_conv_emits_toeplitz_temp(self, tmp_path, capsys):
        out = tmp_path / "low.sexp"
        assert run_cli("select", corpus("conv1d_k8"), "--target", "wmma",
                       "-o", str(out)) == 0
        text = out.read_text()
        assert "wmma_mma" in text
        assert "swizzle0" in text
        assert "(allocate swizzle0 f16 128 mem)" in text

    def test_lowered_file_parses_and_runs(self, tmp_path, capsys):
        # shape declarations and intrinsic forms survive the text format
        out = tmp_path / "low.sexp"
        assert run_cli("select", corpus("downsample2_1d"), "--target", "wmma",
                       "-o", str(out)) == 0
        text = out.read_text()
        assert "(wmma-shape 32 24 8)" in text
        reparsed = ir.parse_program(text)
        assert ir.print_program(reparsed) == text
        assert run_cli("run", str(out), "--seed", "5") == 0

    def test_kernel_window_is_checked_at_run_time(self, tmp_path, capsys):
        prog, low = tmp_path / "conv.sexp", tmp_path / "low.sexp"
        prog.write_text(
            "(param K f32 3 mem)\n(param O f32 10 mem)\n"
            "(store O (ramp (imm i32 0) (imm i32 1) 10) (call ConvolutionShuffle "
            "(var K) (imm i32 100) (imm i32 5) (imm i32 2)))\n")
        assert run_cli("select", str(prog), "-o", str(low)) == 0
        for path in (prog, low):
            assert run_cli("run", str(path)) == 1
            assert "'K' index 100 out of bounds" in capsys.readouterr().err

    def test_preload_b_standard_fails(self, capsys):
        assert run_cli("select", corpus("matmul_preloadB_standard"),
                       "--target", "amx") == 1
        err = capsys.readouterr().err
        assert "statement 2" in err

    def test_json_report_is_byte_stable(self, capsys):
        args = ("select", corpus("conv1d_k8"), "--target", "wmma",
                "--json", "--no-timing", "-o", "/dev/null")
        assert run_cli(*args) == 0
        first = capsys.readouterr().out
        assert run_cli(*args) == 0
        second = capsys.readouterr().out
        assert first == second
        payload = json.loads(first)
        assert payload["statements"][1]["outcome"] == "lowered"
        assert payload["temporaries"] == [
            {"name": "swizzle0", "lanes": 128, "hoist_depth": 0}]

    def test_dump_egraph_included(self, capsys):
        assert run_cli("select", corpus("matmul_vnni"), "--target", "amx",
                       "--json", "--no-timing", "--dump-egraph",
                       "-o", "/dev/null") == 0
        payload = json.loads(capsys.readouterr().out)
        dump = payload["statements"][1]["egraph_dump"]
        assert dump["classes"] and "facts" in dump

    def test_iterations_past_a_fixpoint_are_counted_not_run(self):
        # every statement reaches a fixpoint within a few iterations
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        proc = subprocess.run(
            [sys.executable, "-m", "tensorsel.cli", "select", corpus("matmul_vnni"),
             "--target", "amx", "--iters", "1000000000", "--json", "--no-timing",
             "-o", os.devnull],
            capture_output=True, text=True, env=env, timeout=20)
        assert proc.returncode == 0
        statements = json.loads(proc.stdout)["statements"]
        assert [s["egraph"]["iters"] for s in statements] == [1000000000] * 3

    def test_missing_output_directory_exits_two(self, tmp_path, capsys):
        out = tmp_path / "missing" / "dir" / "x.sexp"
        assert run_cli("select", corpus("matmul_vnni"), "-o", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


class TestBadLimits:
    @pytest.mark.parametrize("command, flags", [
        ("select", ("--node-budget", "10")),
        ("difftest", ("--node-budget", "10")),
        ("select", ("--iters", "0")),
        ("difftest", ("--iters", "0")),
        ("difftest", ("--trials", "-3")),
    ])
    def test_exits_two_with_one_line(self, command, flags, capsys):
        assert run_cli(command, corpus("matmul_vnni"), *flags) == 2
        out = capsys.readouterr()
        assert out.err.startswith("error: ") and out.err.count("\n") == 1
        assert not out.out

    def test_defaults_match_selection_config(self, monkeypatch, capsys):
        seen = []

        def spy(prog, config=None, ruleset=None):
            seen.append(config)
            raise selector.SelectionError("stop after the config is built")

        monkeypatch.setattr(selector, "select_program", spy)
        for command in ("select", "difftest"):
            assert run_cli(command, corpus("matmul_vnni")) == 1
        assert seen == [selector.SelectionConfig()] * 2


class TestDifftest:
    def test_corpus_program_passes(self, capsys):
        assert run_cli("difftest", corpus("matmul_vnni"), "--target", "amx",
                       "--trials", "3") == 0

    def test_zero_trials_selection_only(self, capsys):
        assert run_cli("difftest", corpus("conv1d_k8"), "--target", "wmma",
                       "--trials", "0") == 0
        assert run_cli("difftest", corpus("matmul_preloadB_standard"),
                       "--target", "amx", "--trials", "0") == 1

    @pytest.mark.parametrize("flag", ["--dump-egraph", "--no-timing"])
    def test_report_flags_are_select_only(self, flag, capsys):
        # difftest prints no selection report, so these flags would do nothing
        assert run_cli("difftest", corpus("matmul_vnni"), flag) == 2
        assert flag in capsys.readouterr().err

    def test_mutated_ruleset_diverges(self):
        prog = ir.parse_program((CORPUS / "matmul_vnni.sexp").read_text())
        bad_rules = rules.corrupted_ruleset()
        cfg = selector.SelectionConfig(target="amx")
        result, rep = cli.run_difftest(prog, "mutated", 5, 0, cfg,
                                       ruleset=bad_rules)
        assert rep.ok  # selection still succeeds, the data is just wrong
        assert result.divergence is not None
        assert result.divergence["buffer"] == "matmul_wrapper"
        assert "lane" in result.divergence


    def test_signed_zeros_stay_apart(self, tmp_path, capsys):
        # -0.0 and 0.0 once shared an e-class, so -0.0 - 0.0 became -0.0 - -0.0
        prog = tmp_path / "zeros.sexp"
        prog.write_text(
            "(param O f32 4 mem)\n(allocate T f32 4 mem)\n"
            "(store T (ramp (imm i32 0) (imm i32 1) 4) (sub (broadcast (broadcast "
            "(imm f32 -0.0) 2) 2) (broadcast (imm f32 0.0) 4)))\n"
            "(store O (ramp (imm i32 0) (imm i32 1) 4) "
            "(load T (f32 4) (ramp (imm i32 0) (imm i32 1) 4)))\n")
        assert run_cli("difftest", str(prog), "--trials", "100") == 0
        assert "100 trials: ok" in capsys.readouterr().out


I32_FOLD_OVERFLOWS = {
    "add": ("(add (imm i32 2147483647) (imm i32 1))", 2**31),
    "mul": ("(mul (imm i32 65536) (imm i32 65536))", 2**32),
}


class TestI32FoldOverflow:
    """A constant expression whose value leaves i32 is left unfolded, so
    selection succeeds and the overflow shows when the program runs."""

    def _program(self, tmp_path, op):
        prog = tmp_path / f"{op}.sexp"
        prog.write_text(
            "(param O i32 1 mem)\n(allocate T i32 1 mem)\n"
            f"(store T (ramp (imm i32 0) (imm i32 1) 1) {I32_FOLD_OVERFLOWS[op][0]})\n"
            "(store O (ramp (imm i32 0) (imm i32 1) 1) "
            "(load T (i32 1) (ramp (imm i32 0) (imm i32 1) 1)))\n")
        return str(prog)

    @pytest.mark.parametrize("op", I32_FOLD_OVERFLOWS)
    def test_select_leaves_it_unfolded(self, op, tmp_path, capsys):
        assert run_cli("select", self._program(tmp_path, op)) == 0
        out = capsys.readouterr().out
        assert "statement 1: unchanged" in out
        assert f"(imm i32 {I32_FOLD_OVERFLOWS[op][1]})" not in out

    @pytest.mark.parametrize("command", ["run", "difftest"])
    @pytest.mark.parametrize("op", I32_FOLD_OVERFLOWS)
    def test_overflow_reported_at_run_time(self, op, command, tmp_path, capsys):
        assert run_cli(command, self._program(tmp_path, op)) == 1
        value = I32_FOLD_OVERFLOWS[op][1]
        assert capsys.readouterr().err == (
            f"error: body[1]: i32 range exceeded (max {value}, min {value})\n")


class TestLayout:
    def test_toeplitz_text(self, capsys):
        assert run_cli("layout", "toeplitz", "--l", "3", "--k", "2") == 0
        out = capsys.readouterr().out
        assert "K0 ." in out
        assert "indices: 1 -1 2 1 3 2 -1 3 -1 -1" in out

    def test_interleave(self, capsys):
        assert run_cli("layout", "interleave", "--l", "2", "--k", "4",
                       "--p", "2") == 0
        assert capsys.readouterr().out.strip() == "0 2 1 3 4 6 5 7"

    def test_json_mode(self, capsys):
        assert run_cli("layout", "polyphase", "--l", "2", "--k", "4",
                       "--p", "2", "--json") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["mode"] == "upsample"
        assert payload["rows"] == 4

    def test_usage_error_exit_code(self):
        assert run_cli("layout", "toeplitz") == 2

    @pytest.mark.parametrize("argv", [
        ("toeplitz", "--l", "0", "--k", "4"),
        ("toeplitz", "--l", "3", "--k", "4", "--s", "2", "--p", "2"),
        ("interleave", "--l", "3", "--k", "3", "--p", "2"),
        ("interleave", "--l", "2", "--k", "4", "--p", "0"),
        ("toeplitz", "--l", "4000", "--k", "4000"),
        ("interleave", "--l", "100000", "--k", "100000", "--p", "2"),
        ("interleave", "--l", "-3", "--k", "4", "--p", "2"),
        ("interleave", "--l", "2", "--k", "-4", "--p", "2"),
    ])
    def test_sizes_forming_no_matrix_exit_two(self, argv, capsys):
        assert run_cli("layout", *argv) == 2
        out = capsys.readouterr()
        assert out.err.startswith("error: ") and out.err.count("\n") == 1
        assert not out.out

    @pytest.mark.parametrize("unbuffered", ["", "1"])
    def test_reader_closing_stdout_exits_one_quietly(self, unbuffered):
        # ~500 KB of output: far more than a pipe holds, so writes must fail
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src"),
               "PYTHONUNBUFFERED": unbuffered}
        proc = subprocess.Popen(
            [sys.executable, "-m", "tensorsel.cli", "layout", "toeplitz",
             "--l", "200", "--k", "200"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        assert proc.stdout.read(10) == b"K0 . . . ."
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert err == b""

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("unbuffered", ["", "1"])
    def test_full_stdout_exits_one_with_an_error_line(self, unbuffered):
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src"),
               "PYTHONUNBUFFERED": unbuffered}
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "tensorsel.cli", "layout", "toeplitz",
                 "--l", "20", "--k", "20"],
                stdout=full, stderr=subprocess.PIPE, env=env, timeout=60)
        assert proc.returncode == 1
        assert proc.stderr.startswith(b"error: ") and proc.stderr.count(b"\n") == 1
