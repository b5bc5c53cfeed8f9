"""Cache layout: blob sections, engine-named side files, legacy leftovers.

Blob sections and side-file names come from engine declarations: the
blob keeps one section per persistent engine, and side files carry the
owning engine's name in the filename and payload.  Side files named the
pre-registry way (``<key>.tables.<hash>.pkl`` forward,
``<key>.btables.<hash>.pkl`` backward) are no longer read: a directory
holding them loads, ignores them and recomputes the verdicts, and
:func:`repro.cache.clear` still prunes them.
"""

import pytest

import repro.cache as artifact_cache
from repro.core.session import clear_registry, compile as compile_session
from repro.engines import get_engine, persistent_engines
from repro.kernel import serialize
from repro.workloads.families import filtering_family


@pytest.fixture(autouse=True)
def _fresh_registry():
    clear_registry()
    yield
    clear_registry()


def _donor(tmp_path, n=6):
    """A published session that served one transducer on both engines."""
    transducer, din, dout, expected = filtering_family(n)
    session = compile_session(din, dout, cache_dir=tmp_path, reuse=False)
    assert session.typecheck(transducer, method="forward").typechecks == expected
    assert session.typecheck(transducer, method="backward").typechecks == expected
    return session, transducer, expected


def _snapshots(session, engine_name):
    store, _limit = get_engine(engine_name).side_store(session)
    assert store, f"donor session stored no {engine_name} snapshots"
    return dict(store)


class TestBlobLayout:
    def test_blob_sections_are_the_v13_layout(self, tmp_path):
        """Old readers index the blob by these exact section names; the
        registry must reproduce them (persistent engines in registration
        order), not invent new ones."""
        session, _transducer, _expected = _donor(tmp_path)
        path = artifact_cache.save_session(session, cache_dir=tmp_path)
        payload = serialize.loads(path.read_bytes())
        assert set(payload["artifacts"]) == {
            "sin", "sout", "forward", "backward", "replus", "delrelab",
        }
        assert set(payload["artifacts"]) == {"sin", "sout"} | {
            engine.name for engine in persistent_engines()
        }


class TestLegacySideFiles:
    def _write_legacy(self, tmp_path, session):
        """Side files named the pre-registry way: kind encoded in the
        name, payload without an ``engine`` key."""
        key = artifact_cache.artifact_key(session.sin, session.sout)
        for engine_name, kind, field in (
            ("forward", "tables", "tables"),
            ("backward", "btables", "result"),
        ):
            for thash, snapshot in _snapshots(session, engine_name).items():
                payload = {
                    "cache_format": artifact_cache.CACHE_FORMAT,
                    "key": key,
                    "transducer": thash,
                    field: snapshot,
                }
                (tmp_path / f"{key}.{kind}.{thash}.pkl").write_bytes(
                    serialize.dumps(payload)
                )
        return key

    def test_legacy_names_are_ignored_and_recomputed(self, tmp_path):
        session, transducer, expected = _donor(tmp_path)
        key = self._write_legacy(tmp_path, session)
        # Only the blob and the two hand-written legacy files are on disk.
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == sorted([
            f"{key}.session.pkl",
            f"{key}.tables.{transducer.content_hash()}.pkl",
            f"{key}.btables.{transducer.content_hash()}.pkl",
        ])

        clear_registry()
        _t, din, dout, _e = filtering_family(6)
        loaded = compile_session(din, dout, cache_dir=tmp_path, reuse=False)
        assert loaded.stats["source"] == "artifact-cache"
        thash = transducer.content_hash()
        for engine_name in ("forward", "backward"):
            store, _limit = get_engine(engine_name).side_store(loaded)
            assert thash not in store, engine_name
        for method in ("forward", "backward"):
            result = loaded.typecheck(transducer, method=method)
            assert result.typechecks == expected
            assert result.stats["table_cache"] == "miss", method

    def test_clear_prunes_legacy_leftovers(self, tmp_path):
        session, _transducer, _expected = _donor(tmp_path)
        self._write_legacy(tmp_path, session)
        assert artifact_cache.clear(tmp_path) == 3
        assert list(tmp_path.iterdir()) == []

    def test_new_side_files_carry_the_engine_name(self, tmp_path):
        session, transducer, _expected = _donor(tmp_path)
        key = artifact_cache.artifact_key(session.sin, session.sout)
        artifact_cache.publish(session, cache_dir=tmp_path, min_interval_s=0)
        thash = transducer.content_hash()
        for engine_name, field in (("forward", "tables"), ("backward", "result")):
            path = artifact_cache.side_file_path(
                tmp_path, key, engine_name, thash
            )
            assert path.exists(), engine_name
            payload = serialize.loads(path.read_bytes())
            assert payload["engine"] == engine_name
            assert payload["transducer"] == thash
            assert isinstance(payload[field], dict)
