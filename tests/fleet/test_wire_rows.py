"""Packed int64 ingest rows: the codec, its strict decoder, and the live daemon."""

import base64
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.normalization import Domain
from repro.fleet import FleetClient
from repro.fleet.rows import pack_rows, unpack_rows
from repro.fleet.serve import DEFAULT_LIMIT
from repro.sharding import ShardedStreamEngine
from repro.streams import JoinQuery, StreamEngine

from .test_serve import DOMAIN_SPEC, ServeHarness

SPECS = {
    method: {
        "kind": "join",
        "relations": ["R1", "R2"],
        "predicates": ["R1.A = R2.A"],
        "method": method,
        "budget": 24,
        "options": {"probability": 0.5} if method == "sample" else {},
    }
    for method in ("cosine", "basic_sketch", "sample", "histogram")
}


def served_fleet():
    fleet = ShardedStreamEngine(num_shards=2, seed=3)
    fleet.enable_dead_lettering()
    return fleet


@pytest.fixture
def harness():
    fleet = served_fleet()
    harness = ServeHarness(fleet)
    yield harness
    harness.close()
    fleet.close()


@pytest.fixture
def client(harness):
    with FleetClient(*harness.address) as client:
        client.create_relation("R1", ["A"], [DOMAIN_SPEC])
        client.create_relation("R2", ["A"], [DOMAIN_SPEC])
        yield client


class TestCodec:
    def test_round_trip_is_read_only_int64(self):
        rows = np.array([[1, -2], [3, 2**62]], dtype=np.int64)
        packed = pack_rows(rows)
        assert packed["dtype"] == "<i8" and packed["shape"] == [2, 2]
        assert json.loads(json.dumps(packed)) == packed
        decoded = unpack_rows(packed)
        np.testing.assert_array_equal(decoded, rows)
        assert decoded.dtype == np.int64 and not decoded.flags.writeable

    def test_lists_pack_exactly_when_numpy_reads_them_as_int64(self):
        assert pack_rows([[1], [2]])["shape"] == [2, 1]
        assert pack_rows(np.zeros((0, 3), dtype=np.int64))["data"] == ""
        for rows in (
            [[1.5], [2]],
            [[True], [False]],
            [["3"], ["4"]],
            [[1, 2], [3]],
            [1, 2, 3],
            [[2**64]],
            np.zeros((2, 2), dtype=np.int32),
            np.zeros((3, 0), dtype=np.int64),
        ):
            assert pack_rows(rows) is None, rows

    def test_client_sends_non_int64_arrays_as_lists(self, client):
        assert client.ingest("R1", np.array([[1], [2]], dtype=np.int32))["rows"] == 2
        done = client.ingest("R1", np.array([[1.0], [2.5]]))
        assert done["rows"] == 2 and done["dead_lettered"] == 1


def _valid_packed(rows):
    return pack_rows(np.asarray(rows, dtype=np.int64).reshape(-1, 1))


def _with(packed, **fields):
    out = dict(packed)
    for key, value in fields.items():
        if value is _MISSING:
            out.pop(key)
        else:
            out[key] = value
    return out


_MISSING = object()
#: One corruption per example; "empty" sends ``{}``.
MUTATIONS = [
    "dtype", "no_dtype", "shape_type", "negative", "arity", "no_shape", "truncated",
    "bad_char", "extra", "data_type", "mismatch", "overflow", "zero_width", "empty",
]
_not_int = st.one_of(
    st.floats(allow_nan=False), st.text(max_size=3), st.booleans(), st.none(), st.just([1])
)


@st.composite
def malformed_rows(draw):
    b = draw(st.integers(1, 6))
    packed = _valid_packed(list(range(b)))
    data = packed["data"]
    mutation = draw(st.sampled_from(MUTATIONS))
    if mutation == "dtype":
        wrong = st.sampled_from(["<i4", ">i8", "<f8", "<u8", "int64", "i8", ""])
        return _with(packed, dtype=draw(st.one_of(wrong, st.integers(), st.none())))
    if mutation == "no_dtype":
        return _with(packed, dtype=_MISSING)
    if mutation == "shape_type":
        shape = st.one_of(
            _not_int.map(lambda n: [n, 1]),
            _not_int.map(lambda n: [b, n]),
            st.text(max_size=4),
            st.integers(),
            st.none(),
        )
        return _with(packed, shape=draw(shape))
    if mutation == "negative":
        return _with(packed, shape=[draw(st.integers(max_value=-1)), -1])
    if mutation == "arity":
        return _with(packed, shape=draw(st.sampled_from([[], [b], [b, 1, 1]])))
    if mutation == "no_shape":
        return _with(packed, shape=_MISSING)
    if mutation == "truncated":
        return _with(packed, data=data[: draw(st.integers(0, len(data) - 1))])
    if mutation == "bad_char":
        i = draw(st.integers(0, len(data) - 1))
        char = draw(st.sampled_from(list("!*- \n.~é")))
        return _with(packed, data=data[:i] + char + data[i + 1:])
    if mutation == "extra":
        return _with(packed, data=data + draw(st.sampled_from(["AAAA", "A", "=", "A" * 12])))
    if mutation == "data_type":
        not_text = st.one_of(st.none(), st.integers(), st.just([data]))
        return _with(packed, data=draw(not_text))
    if mutation == "mismatch":
        return _with(packed, shape=[b + draw(st.integers(1, 5)), 1])
    if mutation == "overflow":
        big = draw(st.sampled_from([2**31, 2**62, 2**63, 2**64, 10**30]))
        return _with(packed, shape=[big, big])
    if mutation == "zero_width":
        # Zero bytes would match any row count: d = 0 is refused outright.
        count = draw(st.sampled_from([0, b, 10**8, 2**62, 2**63]))
        return _with(packed, shape=[count, 0], data="")
    return {}


class TestMalformedRows:
    @settings(
        max_examples=120,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(rows=malformed_rows())
    def test_rejected_and_the_session_keeps_serving(self, harness, client, rows):
        with pytest.raises(ValueError, match="malformed rows"):
            unpack_rows(rows)
        response = client.request("ingest", relation="R1", rows=rows)
        assert response["ok"] is False
        assert "malformed rows" in response["error"]
        assert client.ping()["ok"] is True
        # Refused before validation: nothing reached the engine.
        assert harness.server.fleet.dead_letters.total == 0

    def test_daemon_keeps_serving_other_clients(self, harness, client):
        client.request("ingest", relation="R1", rows={"dtype": "<i8"})
        with FleetClient(*harness.address) as other:
            assert other.ingest("R1", [[1], [2]])["rows"] == 2
        assert client.ingest("R1", [[3]])["dead_lettered"] == 0


BATCHES = [
    ("R1", [[1], [2], [15], [15], [47]]),  # in domain
    ("R2", [[15], [15], [2], [0]]),
    ("R1", [[3], [48], [-1], [1000], [5]]),  # out of domain
    ("R2", [[1, 2], [3, 4]]),  # wrong arity, all rows
    ("R1", [[1.0], [2.5], [7]]),  # floats: a whole one, a fractional one
    ("R2", [[float("nan")], [9]]),
    ("R1", [[9], [9], [9], [0]]),
]


class TestPackedListParity:
    def test_same_answers_and_dead_letters_either_way(self):
        results = []
        for packed in (True, False):
            fleet = served_fleet()
            harness = ServeHarness(fleet)
            try:
                with FleetClient(*harness.address) as client:
                    client.create_relation("R1", ["A"], [DOMAIN_SPEC])
                    client.create_relation("R2", ["A"], [DOMAIN_SPEC])
                    for name, spec in SPECS.items():
                        client.register(name, spec)
                    replies = []
                    for relation, rows in BATCHES:
                        if packed:
                            reply = client.ingest(relation, rows)
                        else:
                            reply = client.check("ingest", relation=relation, rows=rows)
                        replies.append((reply["rows"], reply["dead_lettered"]))
                    answers = {name: client.query(name)["value"] for name in SPECS}
                    letters = client.check("deadletters")["deadletters"]["total"]
                results.append((replies, answers, letters))
            finally:
                harness.close()
                fleet.close()
        assert results[0] == results[1]
        replies, _, letters = results[0]
        assert [dead for _, dead in replies] == [0, 0, 3, 2, 1, 1, 0]
        assert letters == 7


class TestReadOnlyRows:
    def test_decoded_buffer_ingests_like_a_writeable_copy(self, rng):
        rows = rng.integers(0, 48, size=(400, 1))
        decoded = unpack_rows(pack_rows(rows))
        assert not decoded.flags.writeable
        answers = []
        for batch in (decoded, rows.copy()):
            engines = [StreamEngine(seed=2), ShardedStreamEngine(num_shards=2, seed=2)]
            engines[1].enable_dead_lettering()
            for engine in engines:
                engine.create_relation("R1", ["A"], [Domain.of_size(48)])
                engine.create_relation("R2", ["A"], [Domain.of_size(48)])
                query = JoinQuery.parse(["R1", "R2"], ["R1.A = R2.A"])
                for name, spec in SPECS.items():
                    engine.register_query(
                        name, query, method=spec["method"], budget=24, **spec["options"]
                    )
                engine.ingest_batch("R1", batch)
                engine.ingest_batch("R2", batch)
            answers.append([engine.answers() for engine in engines])
            engines[1].close()
        assert answers[0] == answers[1]


class TestReadLimit:
    def test_a_30k_row_packed_request_fits(self, harness, client):
        assert DEFAULT_LIMIT == 512 * 1024
        rows = np.arange(30_000, dtype=np.int64)[:, None] % 48
        line = json.dumps({"op": "ingest", "relation": "R1", "rows": pack_rows(rows)})
        assert 256 * 1024 < len(line) < DEFAULT_LIMIT
        done = client.ingest("R1", rows)
        assert done["rows"] == 30_000 and done["dead_lettered"] == 0
        assert client.ping()["ok"] is True


def test_packed_base64_is_little_endian_int64():
    data = base64.b64decode(pack_rows([[1, 256]])["data"])
    assert data == (1).to_bytes(8, "little") + (256).to_bytes(8, "little")
