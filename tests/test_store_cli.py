"""CLI surface of the store: ``repro store {inspect,verify,compact}``.

Exit-code contract under test: verify returns 0 when committed state can
be rebuilt (``OK`` or ``RECOVERABLE``), 1 under ``--strict`` when
recovery would have to discard bytes, 2 when committed state is lost.
"""

import json
import os

import pytest

from repro.cli import main
from repro.engine.versions import PhysicalVersion
from repro.store import DurableStore, load_state


@pytest.fixture
def store_dir(tmp_path):
    root = str(tmp_path / "store")
    store = DurableStore(root, fsync="always")
    store.open(now_wall=1000.0)
    store.log_write(PhysicalVersion("x", "s1.1", 1.0, 1.0, 1))
    store.log_write(PhysicalVersion("y", "s1.2", 2.0, 2.0, 1))
    store.log_write(PhysicalVersion("x", "s1.3", 3.0, 3.0, 1))
    store.close()
    return root


def _tear_tail(root):
    with open(os.path.join(root, "wal.log"), "ab") as fh:
        fh.write(b"\xde\xad half a record")


def _corrupt_snapshot(root):
    with open(os.path.join(root, "snapshot.json"), "w") as fh:
        fh.write("{torn")


class TestInspect:
    def test_human_output(self, store_dir, capsys):
        assert main(["store", "inspect", store_dir]) == 0
        out = capsys.readouterr().out
        assert "2 objects" in out
        assert "snapshot: none" in out
        assert "3 w" in out  # records by kind

    def test_json_output_with_objects(self, store_dir, capsys):
        assert main(["store", "inspect", store_dir, "--json",
                     "--objects"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["objects"] == 2
        assert summary["recoverable"] is True
        assert summary["clean"] is False
        assert summary["wal"]["records_by_kind"]["w"] == 3
        assert summary["object_versions"]["x"]["value"] == "s1.3"
        assert summary["object_versions"]["y"]["writer"] == 1

    def test_objects_table(self, store_dir, capsys):
        assert main(["store", "inspect", store_dir, "--objects"]) == 0
        out = capsys.readouterr().out
        assert "recovered object versions" in out
        assert "s1.3" in out

    def test_torn_tail_reported(self, store_dir, capsys):
        _tear_tail(store_dir)
        assert main(["store", "inspect", store_dir]) == 0
        assert "unusable bytes" in capsys.readouterr().out


class TestVerify:
    def test_healthy_store_ok(self, store_dir, capsys):
        assert main(["store", "verify", store_dir]) == 0
        assert capsys.readouterr().out.startswith("OK ")

    def test_torn_tail_recoverable(self, store_dir, capsys):
        _tear_tail(store_dir)
        assert main(["store", "verify", store_dir]) == 0
        out = capsys.readouterr().out
        assert out.startswith("RECOVERABLE ")
        assert "torn-tail" in out

    def test_strict_fails_on_problems(self, store_dir):
        _tear_tail(store_dir)
        assert main(["store", "verify", store_dir, "--strict"]) == 1

    def test_strict_passes_clean(self, store_dir):
        assert main(["store", "verify", store_dir, "--strict"]) == 0

    def test_corrupt_snapshot_with_wal_is_recoverable(
        self, store_dir, capsys
    ):
        # Give the store a snapshot, keep a WAL suffix, then corrupt the
        # snapshot: the log still rebuilds part of the state.
        store = DurableStore(store_dir, fsync="always")
        recovered = store.open(now_wall=1001.0)
        store.snapshot(recovered.context, now=recovered.resume_time)
        store.log_write(PhysicalVersion("z", "s1.4", 4.0, 4.0, 1))
        store.close()
        _corrupt_snapshot(store_dir)
        assert main(["store", "verify", store_dir]) == 0
        assert "RECOVERABLE" in capsys.readouterr().out

    def test_corrupt_snapshot_without_wal_is_unrecoverable(
        self, store_dir, capsys
    ):
        # Compact everything into the snapshot (empty WAL), then corrupt
        # it: committed state is genuinely lost.
        assert main(["store", "compact", store_dir]) == 0
        capsys.readouterr()
        _corrupt_snapshot(store_dir)
        assert main(["store", "verify", store_dir]) == 2
        assert "UNRECOVERABLE" in capsys.readouterr().out

    def test_delta_reports_would_be_old(self, store_dir, capsys):
        # last_time is 3.0 (the newest write) so the bound at delta=0.5
        # is 2.5: y (omega 2.0) falls behind it, x (omega 3.0) does not.
        assert main(["store", "verify", store_dir, "--delta", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "would mark 1 versions old: y" in out


class TestCompact:
    def test_compact_truncates_wal_and_is_clean(self, store_dir, capsys):
        before = os.path.getsize(os.path.join(store_dir, "wal.log"))
        assert main(["store", "compact", store_dir]) == 0
        out = capsys.readouterr().out
        assert "2 objects" in out
        after = os.path.getsize(os.path.join(store_dir, "wal.log"))
        assert after == 0 < before
        state = load_state(store_dir)
        assert state.clean
        assert state.objects["x"].value == "s1.3"
        assert main(["store", "verify", store_dir, "--strict"]) == 0

    def test_compact_quarantines_torn_tail(self, store_dir, capsys):
        _tear_tail(store_dir)
        assert main(["store", "compact", store_dir]) == 0
        assert "quarantined" in capsys.readouterr().out
        assert os.path.exists(
            os.path.join(store_dir, "wal.log.quarantine-0")
        )
        assert load_state(store_dir).clean


class TestServeFlags:
    def test_serve_parser_accepts_store_flags(self):
        # Parser-level smoke: the flags exist with the right defaults.
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["serve", "--store-dir", "/tmp/s", "--fsync", "always",
             "--recovery-delta", "2.5"]
        )
        assert args.store_dir == "/tmp/s"
        assert args.fsync == "always"
        assert args.recovery_delta == 2.5
        soak = build_parser().parse_args(
            ["ring", "soak", "--store-dir", "/tmp/r"]
        )
        assert soak.store_dir == "/tmp/r"
        assert soak.fsync == "interval"
