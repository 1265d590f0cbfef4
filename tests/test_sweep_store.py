"""The result store: round trips, corruption, leftovers, tooling, CLI."""

import multiprocessing
import os
import random
import sqlite3

import pytest

from repro.cli import main
from repro.sweep.executor import run_sweep
from repro.sweep.spec import InitFamily, ScenarioSpec, SweepConfig
from repro.sweep.store import (
    STORE_FILE,
    STORE_SCHEMA_VERSION,
    StoreOpenError,
    open_store,
    store_info,
    vacuum_store,
    verify_store,
)

#: Store layouts of earlier versions that a cache directory may still
#: hold; the store must ignore them (see ``litter_legacy_layout``).
LEGACY_LAYOUTS = ("json", "sqlite")


def _config(seed: int, **overrides) -> SweepConfig:
    base = dict(
        n=16,
        k=2,
        placement="random",
        pointer="random",
        seed=seed,
        metrics=("cover",),
        max_rounds=4096,
    )
    base.update(overrides)
    return SweepConfig(**base)


def _cover_spec(**overrides) -> ScenarioSpec:
    base = dict(
        name="store-test",
        ns=(16, 24),
        ks=(2, 3),
        families=(
            InitFamily("all_on_one", "toward_node0"),
            InitFamily("equally_spaced", "negative"),
        ),
        metrics=("cover",),
    )
    base.update(overrides)
    return ScenarioSpec(**base)


def _tamper(directory, config_hash, metrics_text):
    """Overwrite one row's metrics from outside the store."""
    conn = sqlite3.connect(os.path.join(directory, STORE_FILE))
    conn.execute(
        "UPDATE cells SET metrics = ? WHERE hash = ?",
        (metrics_text, config_hash),
    )
    conn.commit()
    conn.close()


class TestSpecStrings:
    """The cache path is a plain directory; an empty one is refused."""

    def test_empty_directory_rejected(self):
        with pytest.raises(StoreOpenError, match="names no directory"):
            open_store("")


@pytest.mark.parametrize("legacy", LEGACY_LAYOUTS)
class TestRoundTrip:
    """Round trips in a directory an earlier store layout also used."""

    def _store(self, tmp_path, legacy, litter, cells):
        directory = str(tmp_path / "cache")
        litter(directory, legacy, cells)
        return open_store(directory)

    def test_put_many_lookup_many(self, legacy, tmp_path,
                                  litter_legacy_layout):
        cells = [_config(seed) for seed in range(20)]
        store = self._store(tmp_path, legacy, litter_legacy_layout, cells)
        assert store.lookup_many(cells)[0] == {}
        store.put_many([(c, {"cover": c.seed * 3}) for c in cells])
        found, statuses = store.lookup_many(cells)
        assert len(found) == 20
        assert all(status == "hit" for status in statuses.values())
        for cell in cells:
            assert found[cell.config_hash] == {"cover": cell.seed * 3}
        assert store.count() == 20
        store.close()

    def test_missing_cells_report_miss(self, legacy, tmp_path,
                                       litter_legacy_layout):
        present = [_config(seed) for seed in range(4)]
        absent = [_config(seed) for seed in range(100, 104)]
        store = self._store(tmp_path, legacy, litter_legacy_layout, absent)
        store.put_many([(c, {"cover": 1}) for c in present])
        found, statuses = store.lookup_many(present + absent)
        assert set(found) == {c.config_hash for c in present}
        for cell in absent:
            assert statuses[cell.config_hash] == "miss"
        store.close()

    def test_duplicate_probes_collapse(self, legacy, tmp_path,
                                       litter_legacy_layout):
        cell = _config(7)
        store = self._store(tmp_path, legacy, litter_legacy_layout, [cell])
        store.put_many([(cell, {"cover": 9})])
        found, statuses = store.lookup_many([cell, cell, cell])
        assert found == {cell.config_hash: {"cover": 9}}
        assert statuses == {cell.config_hash: "hit"}
        store.close()

    def test_put_replaces(self, legacy, tmp_path, litter_legacy_layout):
        cell = _config(1)
        store = self._store(tmp_path, legacy, litter_legacy_layout, [cell])
        store.put_many([(cell, {"cover": 1})])
        store.put_many([(cell, {"cover": 2})])
        assert store.lookup_many([cell])[0] == {
            cell.config_hash: {"cover": 2}
        }
        assert store.count() == 1
        store.close()

    def test_close_is_idempotent(self, legacy, tmp_path,
                                 litter_legacy_layout):
        store = self._store(tmp_path, legacy, litter_legacy_layout, [])
        store.close()
        store.close()


class TestCorruptEntries:
    def _filled(self, tmp_path, cells):
        store = open_store(str(tmp_path))
        store.put_many([(c, {"cover": c.seed}) for c in cells])
        store.close()

    def test_sqlite_unparseable_metrics_reports_corrupt(self, tmp_path):
        cells = [_config(seed) for seed in range(6)]
        self._filled(tmp_path, cells)
        _tamper(str(tmp_path), cells[2].config_hash, "{broken")
        store = open_store(str(tmp_path))
        found, statuses = store.lookup_many(cells)
        assert statuses[cells[2].config_hash] == "corrupt"
        assert cells[2].config_hash not in found
        # The other rows are still served.
        for cell in cells:
            if cell is not cells[2]:
                assert statuses[cell.config_hash] == "hit"
                assert found[cell.config_hash] == {"cover": cell.seed}
        store.close()

    def test_sqlite_non_dict_metrics_reports_corrupt(self, tmp_path):
        cells = [_config(seed) for seed in range(6)]
        self._filled(tmp_path, cells)
        _tamper(str(tmp_path), cells[4].config_hash, "[1,2,3]")
        store = open_store(str(tmp_path))
        found, statuses = store.lookup_many(cells)
        assert statuses[cells[4].config_hash] == "corrupt"
        assert cells[4].config_hash not in found
        assert len(found) == 5
        # A sparse probe (the IN-list path) agrees with the scan.
        assert store.lookup_many(cells[4:5]) == (
            {}, {cells[4].config_hash: "corrupt"}
        )
        store.close()

    def test_json_identity_mismatch_reports_corrupt(self, tmp_path):
        # A row filed under cell's hash but carrying other's identity
        # JSON: probes trust the key, the integrity scan does not.
        cell, other = _config(0), _config(1)
        self._filled(tmp_path, [cell, other])
        conn = sqlite3.connect(str(tmp_path / STORE_FILE))
        conn.execute(
            "UPDATE cells SET config = (SELECT config FROM cells "
            "WHERE hash = ?) WHERE hash = ?",
            (other.config_hash, cell.config_hash),
        )
        conn.commit()
        conn.close()
        report = verify_store(str(tmp_path), repair=True)
        assert (report.checked, report.corrupt, report.repaired) == (2, 1, 1)
        store = open_store(str(tmp_path))
        assert store.lookup_many([cell])[1] == {cell.config_hash: "miss"}
        store.close()

    def test_sqlite_schema_mismatch_refuses(self, tmp_path):
        cell = _config(0)
        self._filled(tmp_path, [cell])
        conn = sqlite3.connect(str(tmp_path / STORE_FILE))
        conn.execute(f"PRAGMA user_version = {STORE_SCHEMA_VERSION + 41}")
        conn.close()
        with pytest.raises(StoreOpenError, match="schema 42"):
            open_store(str(tmp_path))


class TestStaleTmpSweep:
    """The store never reads or removes files it did not write."""

    def test_live_writer_tmp_left_alone(self, tmp_path):
        live = tmp_path / "ab" / f"ab12.json.tmp.{os.getpid()}"
        live.parent.mkdir()
        live.write_text("{in-flight")
        store = open_store(str(tmp_path))
        store.put_many([(_config(0), {"cover": 1})])
        store.close()
        assert live.read_text() == "{in-flight"

    def test_foreign_tmp_names_ignored(self, tmp_path):
        foreign = tmp_path / "notes.tmp.editor-backup"
        foreign.write_text("x")
        store = open_store(str(tmp_path))
        assert store.count() == 0
        store.close()
        assert sorted(os.listdir(tmp_path)) == [
            STORE_FILE, "notes.tmp.editor-backup"
        ]


class TestBackendEquivalence:
    """Randomized suite: both probe paths answer like a dict model.

    ``lookup_many`` scans the whole table for a dense probe and seeks
    through ``IN`` lists for a sparse one; either way its answer must
    be exactly what a plain dict of the stored rows gives.
    """

    @pytest.mark.parametrize("trial", range(5))
    def test_randomized_probe_equivalence(self, trial, tmp_path):
        rng = random.Random(1000 + trial)
        pool = [
            _config(
                seed=rng.randrange(10_000),
                n=rng.choice((16, 24, 32)),
                k=rng.choice((2, 3, 4)),
            )
            for _ in range(40)
        ]
        stored = [c for c in pool if rng.random() < 0.6]
        model = {
            c.config_hash: {"cover": rng.randrange(10_000), "n": c.n}
            for c in stored
        }
        store = open_store(str(tmp_path))
        store.put_many([(c, model[c.config_hash]) for c in stored])
        for size in (len(pool), 3):  # dense (scan), sparse (IN lists)
            probe = rng.sample(pool, size)
            found, statuses = store.lookup_many(probe)
            assert found == {
                c.config_hash: model[c.config_hash]
                for c in probe if c.config_hash in model
            }
            assert statuses == {
                c.config_hash: "hit" if c.config_hash in model else "miss"
                for c in probe
            }
        assert store.count() == len(model)
        store.close()


def _write_slice(args):
    directory, start = args
    store = open_store(directory)
    cells = [_config(seed) for seed in range(start, start + 25)]
    for cell in cells:  # one transaction each: many chances to collide
        store.put_many([(cell, {"cover": cell.seed})])
    store.close()
    return len(cells)


class TestConcurrentWriters:
    def test_two_processes_one_store(self, tmp_path):
        # More writers than cores commit into the one database file;
        # WAL and the busy timeout serialize their transactions, so no
        # commit is lost.
        directory = str(tmp_path / "db")
        starts = [0, 25, 50, 75]
        with multiprocessing.Pool(processes=len(starts)) as pool:
            written = pool.map_async(
                _write_slice, [(directory, start) for start in starts]
            ).get(timeout=120)
        assert written == [25] * len(starts)
        store = open_store(directory)
        cells = [_config(seed) for seed in range(100)]
        found, statuses = store.lookup_many(cells)
        assert len(found) == 100
        assert all(status == "hit" for status in statuses.values())
        for cell in cells:
            assert found[cell.config_hash] == {"cover": cell.seed}
        store.close()


def _open_in_lockstep(root, count, barrier, failures):
    """Open ``count`` fresh stores under ``root``, one per barrier trip."""
    failed = 0
    for index in range(count):
        barrier.wait(timeout=60)
        try:
            open_store(os.path.join(root, f"d{index}")).close()
        except StoreOpenError:
            failed += 1
    failures.put(failed)


class TestConcurrentOpen:
    def test_fresh_stores_open_under_lockstep_openers(self, tmp_path):
        # Regression: switching a new database to WAL takes a lock
        # SQLite does not wait on, so openers racing on a fresh
        # directory used to fail at once with "database is locked".  A
        # barrier before each open lines the processes up on one
        # directory at a time; every open must succeed.
        processes, count = 5, 50
        context = multiprocessing.get_context("spawn")
        barrier = context.Barrier(processes)
        failures = context.Queue()
        workers = [
            context.Process(
                target=_open_in_lockstep,
                args=(str(tmp_path), count, barrier, failures),
            )
            for _ in range(processes)
        ]
        for worker in workers:
            worker.start()
        try:
            failed = [failures.get(timeout=120) for _ in workers]
        finally:
            for worker in workers:
                worker.join(timeout=10)
                if worker.is_alive():
                    worker.terminate()
        assert failed == [0] * processes
        assert all(worker.exitcode == 0 for worker in workers)


class TestExecutorIntegration:
    def test_run_sweep_sqlite_cache_hits_second_time(self, tmp_path):
        spec = _cover_spec()
        cache = str(tmp_path / "cache")
        first = run_sweep(spec, cache_dir=cache)
        assert first.cache_misses == spec.num_configs
        assert first.cache_hits == 0
        second = run_sweep(spec, cache_dir=cache, jobs=2)
        assert second.cache_misses == 0
        assert second.cache_hits == spec.num_configs

    def test_warm_sqlite_rerun_serves_from_cache_alone(self, tmp_path):
        spec = _cover_spec(ns=(16,), ks=(2,))
        cache = str(tmp_path / "cache")
        run_sweep(spec, cache_dir=cache)
        warm = run_sweep(spec, cache_dir=cache)
        cold = run_sweep(spec, cache_dir=None)
        for cached, computed in zip(warm.results, cold.results):
            assert cached.cached
            assert cached.metrics == computed.metrics


class TestTooling:
    def test_store_info(self, tmp_path):
        cells = [_config(seed) for seed in range(8)]
        directory = str(tmp_path / "db")
        store = open_store(directory)
        store.put_many([(c, {"cover": 1}) for c in cells])
        store.close()
        info = store_info(directory)
        assert info["entries"] == 8
        assert info["schema"] == STORE_SCHEMA_VERSION
        assert info["path"] == os.path.join(directory, STORE_FILE)
        assert info["bytes"] > 0

    def test_vacuum_store(self, tmp_path):
        directory = str(tmp_path / "db")
        store = open_store(directory)
        cells = [_config(seed) for seed in range(200)]
        store.put_many([(c, {"cover": 1}) for c in cells])
        store.quarantine_many([c.config_hash for c in cells[1:]])
        store.close()
        facts = vacuum_store(directory)
        assert facts["bytes_after"] < facts["bytes_before"]
        assert store_info(directory)["entries"] == 1


class TestCacheCli:
    def test_info_and_vacuum(self, tmp_path, capsys):
        directory = str(tmp_path / "cache")
        store = open_store(directory)
        store.put_many([(_config(0), {"cover": 1})])
        store.close()
        assert main(["cache", "info", directory]) == 0
        out = capsys.readouterr().out
        assert "entries=1" in out
        assert f"schema={STORE_SCHEMA_VERSION}" in out
        assert main(["cache", "vacuum", directory]) == 0
        assert "bytes_after=" in capsys.readouterr().out

    def test_cache_info_on_missing_store_fails_cleanly(
        self, tmp_path, capsys
    ):
        missing = str(tmp_path / "nope")
        assert main(["cache", "info", missing]) == 2
        assert capsys.readouterr().err.startswith("cache info failed: ")
        assert not os.path.exists(missing)

    def test_cache_verify_on_missing_store_fails_cleanly(
        self, tmp_path, capsys
    ):
        # A mistyped CI gate must fail, not pass vacuously.
        missing = str(tmp_path / "nope")
        assert main(["cache", "verify", missing]) == 2
        err = capsys.readouterr().err
        assert err.startswith("cache verify failed: ")
        assert err.count("\n") == 1
        assert not os.path.exists(missing)

    def test_cache_vacuum_on_missing_store_fails_cleanly(
        self, tmp_path, capsys
    ):
        missing = str(tmp_path / "nope")
        assert main(["cache", "vacuum", missing]) == 2
        assert capsys.readouterr().err.startswith("cache vacuum failed: ")
        assert not os.path.exists(missing)

    def test_legacy_cache_directory_is_recomputed(
        self, tmp_path, capsys, litter_legacy_layout
    ):
        from repro.sweep.registry import scenario

        cells = scenario("table1", quick=True).configs()
        cache = str(tmp_path / "cache")
        for layout in LEGACY_LAYOUTS:
            litter_legacy_layout(cache, layout, cells)
        args = ["sweep", "table1", "--quick", "--cache", cache]
        assert main(args) == 0
        assert f"computed={len(cells)} cached=0" in capsys.readouterr().out
        assert main(args) == 0
        assert f"computed=0 cached={len(cells)}" in capsys.readouterr().out


class TestCacheFlagErrors:
    """An unusable ``--cache`` path exits 2 with one stderr line."""

    @pytest.mark.parametrize("command", (
        ["sweep", "table1", "--quick"],
        ["run", "theorem1", "--quick"],
    ))
    def test_cache_path_is_a_regular_file(self, tmp_path, capsys, command):
        path = tmp_path / "afile"
        path.write_text("")
        assert main([*command, "--cache", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert repr(str(path)) in err
        assert "not a directory" in err

    def test_cache_with_other_schema_version(self, tmp_path, capsys):
        directory = str(tmp_path / "cache")
        open_store(directory).close()
        conn = sqlite3.connect(os.path.join(directory, STORE_FILE))
        conn.execute(f"PRAGMA user_version = {STORE_SCHEMA_VERSION + 1}")
        conn.close()
        args = ["sweep", "table1", "--quick", "--cache", directory]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert directory in err
        assert f"schema {STORE_SCHEMA_VERSION + 1}" in err
