"""Tests for the command-line interface."""

from __future__ import annotations

import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version_flag(self, capsys):
        import repro

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert repro.__version__ in out
        assert out.startswith("repro ")

    def test_compare_defaults(self):
        args = build_parser().parse_args(["compare"])
        assert args.dataset == "netflix"
        assert args.k == 10

    def test_rejects_unknown_dataset(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["compare", "--dataset", "imagenet"])

    def test_rejects_unknown_method(self, capsys):
        # --method is no longer a closed choice list (inline specs are
        # allowed), so the unknown name surfaces as a clean runtime error.
        rc = main([
            "sweep", "--dataset", "netflix", "--n", "400", "--dim", "12",
            "--queries", "2", "--method", "FAISS",
        ])
        assert rc == 2
        assert "unknown method" in capsys.readouterr().out


class TestCommands:
    def test_compare_runs(self, capsys):
        rc = main([
            "compare", "--dataset", "netflix", "--n", "600", "--dim", "16",
            "--queries", "4", "--k", "5",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "ProMIPS" in out and "H2-ALSH" in out and "pages" in out

    def test_sweep_runs(self, capsys):
        rc = main([
            "sweep", "--dataset", "sift", "--n", "800", "--dim", "16",
            "--queries", "4", "--method", "Range-LSH", "--ks", "5,10",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Range-LSH" in out and "recall" in out

    def test_tune_runs(self, capsys):
        rc = main([
            "tune", "--dataset", "netflix", "--n", "600", "--dim", "16",
            "--queries", "4", "--k", "5", "--cs", "0.8,0.9", "--ps", "0.5",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "0.8" in out and "pages" in out

    def test_datasets_runs(self, capsys):
        rc = main(["datasets", "--n", "300", "--dim", "12"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "17770" in out  # paper profile
        assert "300" in out    # sim override

    def test_throughput_runs(self, capsys):
        rc = main([
            "throughput", "--dataset", "netflix", "--n", "600", "--dim", "16",
            "--queries", "8", "--k", "5", "--methods", "Exact,SimHash",
            "--repeats", "1",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "batch_qps" in out and "Exact" in out and "SimHash" in out

    def test_throughput_defaults(self):
        args = build_parser().parse_args(["throughput"])
        assert args.methods == "all"
        assert args.k == 10

    def test_sweep_accepts_inline_spec(self, capsys):
        rc = main([
            "sweep", "--dataset", "netflix", "--n", "500", "--dim", "12",
            "--queries", "3", "--method", "promips(c=0.8, m=4, kp=3, n_key=8, ksp=3)",
            "--ks", "5",
        ])
        assert rc == 0
        assert "recall" in capsys.readouterr().out


class TestBuildQuery:
    """`build` persists an index; `query` reloads it and answers a workload."""

    def _build(self, tmp_path, capsys, spec="promips(c=0.9, m=4, kp=3, n_key=8, ksp=3)"):
        out = tmp_path / "idx.npz"
        rc = main([
            "build", "--dataset", "netflix", "--n", "500", "--dim", "12",
            "--queries", "4", "--spec", spec, "--out", str(out),
        ])
        assert rc == 0
        assert out.exists()
        return out, capsys.readouterr().out

    def test_build_then_query(self, tmp_path, capsys):
        out, build_out = self._build(tmp_path, capsys)
        assert "saved to" in build_out and "promips" in build_out

        rc = main(["query", "--index", str(out), "--k", "5"])
        assert rc == 0
        query_out = capsys.readouterr().out
        assert "loaded promips index" in query_out
        assert "ratio" in query_out and "recall" in query_out
        assert "query 0: top-5" in query_out

    def test_build_then_query_other_method(self, tmp_path, capsys):
        out, _ = self._build(tmp_path, capsys, spec="simhash(n_bits=24)")
        rc = main(["query", "--index", str(out), "--k", "5", "--show", "1"])
        assert rc == 0
        assert "loaded simhash index" in capsys.readouterr().out

    def test_query_with_query_file(self, tmp_path, capsys):
        import numpy as np

        out, _ = self._build(tmp_path, capsys, spec="exact()")
        qfile = tmp_path / "queries.npy"
        np.save(qfile, np.random.default_rng(0).standard_normal((3, 12)))
        rc = main([
            "query", "--index", str(out), "--k", "4",
            "--query-file", str(qfile), "--show", "3",
        ])
        assert rc == 0
        outtxt = capsys.readouterr().out
        assert "query 2: top-4" in outtxt

    def test_build_rejects_bad_spec(self, tmp_path, capsys):
        rc = main([
            "build", "--dataset", "netflix", "--n", "400", "--dim", "12",
            "--queries", "2", "--spec", "faiss(gpu=True)",
            "--out", str(tmp_path / "x.npz"),
        ])
        assert rc == 2
        assert "unknown method" in capsys.readouterr().out

    def test_query_missing_file(self, tmp_path, capsys):
        rc = main(["query", "--index", str(tmp_path / "missing.npz")])
        assert rc == 2
        assert "no such index" in capsys.readouterr().out

    def test_query_rejects_non_index_npz(self, tmp_path, capsys):
        import numpy as np

        bad = tmp_path / "random.npz"
        np.savez_compressed(bad, xs=np.arange(4))
        rc = main(["query", "--index", str(bad)])
        assert rc == 2
        assert "error:" in capsys.readouterr().out

    def test_query_rejects_mismatched_query_file(self, tmp_path, capsys):
        import numpy as np

        out, _ = self._build(tmp_path, capsys, spec="exact()")
        qfile = tmp_path / "wrong.npy"
        np.save(qfile, np.ones((2, 99)))
        rc = main(["query", "--index", str(out), "--query-file", str(qfile)])
        assert rc == 2
        assert "error:" in capsys.readouterr().out


class TestServe:
    """The serve command's argument surface and runtime boot (the serve
    loop itself is exercised over real HTTP in tests/test_server.py)."""

    def test_defaults(self):
        args = build_parser().parse_args(["serve", "--spec", "exact()"])
        assert args.host == "127.0.0.1" and args.port == 8080
        assert args.max_batch == 32 and args.cache_size == 1024
        assert args.build_seed == 1

    @pytest.mark.parametrize("flag", [
        ["--max-wait-ms", "2"], ["--no-coalesce"], ["--no-maintenance"],
        ["--maintenance-poll-ms", "50"],
    ])
    def test_removed_runtime_flags_rejected(self, flag, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--spec", "exact()", *flag])
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_requires_exactly_one_source(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["serve", "--spec", "exact()", "--index", "idx.npz"]
            )

    def test_boots_runtime_from_spec(self):
        from repro.cli import _serve_runtime

        args = build_parser().parse_args([
            "serve", "--spec", "exact()", "--dataset", "netflix",
            "--n", "300", "--dim", "12", "--cache-size", "8",
            "--max-batch", "4",
        ])
        runtime = _serve_runtime(args)
        with runtime:
            assert runtime.health()["method"] == "exact"
            assert runtime.cache.capacity == 8
            assert runtime.batcher.max_batch == 4
            assert runtime.maintenance is None

    def test_boots_runtime_from_envelope(self, tmp_path, capsys):
        from repro.cli import _serve_runtime

        out = tmp_path / "idx.npz"
        rc = main([
            "build", "--dataset", "netflix", "--n", "300", "--dim", "12",
            "--queries", "2", "--spec", "simhash(n_bits=24)", "--out", str(out),
        ])
        assert rc == 0
        args = build_parser().parse_args(["serve", "--index", str(out)])
        runtime = _serve_runtime(args)
        with runtime:
            assert runtime.health()["method"] == "simhash"
            assert runtime.batcher.max_batch == 32

    def test_missing_envelope_errors_cleanly(self, tmp_path, capsys):
        rc = main(["serve", "--index", str(tmp_path / "missing.npz")])
        assert rc == 2
        assert "no such index" in capsys.readouterr().out

    @pytest.mark.parametrize("stop_signal", [signal.SIGINT, signal.SIGTERM],
                             ids=["SIGINT", "SIGTERM"])
    def test_signal_stops_the_server_cleanly(self, stop_signal):
        # SIGINT starts ignored, as in a job a non-interactive shell puts in
        # the background; the server must still stop on it, and on SIGTERM,
        # by returning through its cleanup with exit status 0.
        env = {**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])}
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--spec", "exact()",
             "--dataset", "netflix", "--n", "200", "--dim", "8", "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=env,
            preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_IGN),
        )
        try:
            out = b""
            deadline = time.monotonic() + 60
            while b"serving" not in out:
                left = deadline - time.monotonic()
                ready = select.select([proc.stdout], [], [], max(left, 0))[0]
                chunk = os.read(proc.stdout.fileno(), 4096) if ready else b""
                assert chunk, f"no 'serving' line before exit or timeout: {out!r}"
                out += chunk
            proc.send_signal(stop_signal)
            assert proc.wait(timeout=10) == 0, proc.stdout.read()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()

    def test_bad_spec_errors_cleanly(self, capsys):
        rc = main([
            "serve", "--spec", "faiss()", "--dataset", "netflix",
            "--n", "200", "--dim", "8",
        ])
        assert rc == 2
        assert "unknown method" in capsys.readouterr().out
