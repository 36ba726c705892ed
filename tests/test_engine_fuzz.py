"""Seeded property-based fuzzing of the transport-free server engines.

Random interleavings of write / write-batch / validate / fetch /
duplicate frames from several synthetic clients run against a bare
:class:`~repro.engine.ServerEngine` (and its causal sibling) under a
deterministic seeded clock.  Per run we assert the engine's structural
invariants — each unique write installs at most once even when its frame
is retransmitted, replays are byte-identical to the original reply,
install times are strictly monotone per object — and then feed the
recorded execution to the *offline* checkers: the physical runs must
satisfy TSC with delta = 0 (the engine is a linearizable home server, so
reads can never be late), the causal runs TCC.  The seeds are fixed, so
a failure reproduces exactly.
"""

import random

from repro.checkers import check_tcc, check_tsc
from repro.clocks.vector import VectorClock, VectorTimestamp
from repro.engine import CausalServerEngine, ServerEngine, messages
from repro.engine.versions import LogicalVersion
from repro.sim.trace import TraceRecorder

N_CLIENTS = 4
N_FRAMES = 250
OBJECTS = ["x", "y", "z", "w"]
SEEDS = [0xC0FFEE, 1999, 7]  # PODC '99 and friends


class SteppingClock:
    """Strictly monotone fake clock with seeded random increments."""

    def __init__(self, rng: random.Random, start: float = 0.0) -> None:
        self.rng = rng
        self.now = start

    def __call__(self) -> float:
        self.now += self.rng.uniform(0.01, 1.0)
        return self.now


def random_frame(rng, req, known_alphas):
    """One random request frame; ``known_alphas`` maps obj -> some alpha
    previously acked for it (to make validates plausibly hit)."""
    kind = rng.choice(
        [messages.WRITE] * 4 + [messages.FETCH] * 2
        + [messages.VALIDATE] * 2 + [messages.WRITE_BATCH]
        + [messages.VALIDATE_BATCH]
    )
    obj = rng.choice(OBJECTS)
    if kind == messages.WRITE:
        return {"kind": kind, "obj": obj, "value": f"v{req}", "req": req}
    if kind == messages.FETCH:
        return {"kind": kind, "obj": obj, "req": req}
    if kind == messages.VALIDATE:
        alpha = known_alphas.get(obj) if rng.random() < 0.5 else None
        return {"kind": kind, "obj": obj, "alpha": alpha, "req": req}
    if kind == messages.WRITE_BATCH:
        batch = rng.sample(OBJECTS, rng.randint(1, len(OBJECTS)))
        return {
            "kind": kind, "req": req,
            "writes": [
                {"obj": o, "value": f"v{req}.{i}"} for i, o in enumerate(batch)
            ],
        }
    return {
        "kind": messages.VALIDATE_BATCH, "req": req,
        "items": [
            {"obj": o, "alpha": known_alphas.get(o) if rng.random() < 0.5 else None}
            for o in rng.sample(OBJECTS, rng.randint(1, len(OBJECTS)))
        ],
    }


def drive(engine, client_id, frame):
    """One request the way every driver issues it: replay-or-execute."""
    key = engine.dedup_key(client_id, frame)
    cached = engine.replay(key)
    if cached is not None:
        return cached, True
    return engine.execute(client_id, frame).reply, False


def fuzz_physical(seed):
    rng = random.Random(seed)
    engine = ServerEngine(SteppingClock(random.Random(seed + 1)))
    engine.journal = []
    recorder = TraceRecorder()
    sent = {}  # (client, req) -> (frame, original reply)
    known_alphas = {}
    req = 0
    for _ in range(N_FRAMES):
        client = rng.randrange(N_CLIENTS)
        if sent and rng.random() < 0.2:
            # Retransmit a previously answered request, verbatim.
            key = rng.choice(sorted(sent))
            frame, original = sent[key]
            reply, replayed = drive(engine, key[0], frame)
            assert replayed, "a duplicate must replay, not execute"
            assert reply == original, (
                f"replayed reply differs for {key}: {reply} != {original}"
            )
            continue
        frame = random_frame(rng, req, known_alphas)
        reply, replayed = drive(engine, client, frame)
        assert not replayed
        sent[(client, req)] = (frame, reply)
        req += 1
        record(recorder, client, frame, reply, known_alphas)
    return engine, recorder


def record(recorder, client, frame, reply, known_alphas):
    """Turn a frame/reply pair into history operations."""
    kind = reply["kind"]
    if kind == messages.WRITE_ACK:
        known_alphas[frame["obj"]] = reply["alpha"]
        recorder.record_write(
            client, frame["obj"], frame["value"], reply["alpha"]
        )
    elif kind == messages.WRITE_BATCH_ACK:
        for item, ack in zip(frame["writes"], reply["acks"]):
            known_alphas[item["obj"]] = ack["alpha"]
            recorder.record_write(
                client, item["obj"], item["value"], ack["alpha"]
            )
    elif kind == messages.VERSION:
        # Reads of the untouched initial value (0) are valid history too:
        # the recorder's History carries initial_value=0.
        recorder.record_read(
            client, reply["obj"], reply["value"], reply["omega"]
        )
    elif kind == messages.STILL_VALID:
        pass  # no value shipped, nothing to record
    elif kind == messages.VALIDATE_BATCH_ACK:
        for item in reply["results"]:
            if item["kind"] == messages.VERSION:
                recorder.record_read(
                    client, item["obj"], item["value"], item["omega"]
                )


class TestPhysicalFuzz:
    def test_invariants_and_tsc_hold_for_every_seed(self):
        for seed in SEEDS:
            engine, recorder = fuzz_physical(seed)

            # Each unique write value installed at most (here: exactly)
            # once, across every retransmission.
            installed = [
                v for entry in engine.journal for v in entry["installed"]
            ]
            values = [v.value for v in installed]
            assert len(values) == len(set(values)), f"double install, seed {seed}"
            # A strictly monotone clock means no write is ever LWW-discarded.
            assert engine.writes_discarded == 0
            assert engine.writes_installed == len(installed)

            # Install times strictly increase per object.
            per_obj = {}
            for v in installed:
                assert v.alpha > per_obj.get(v.obj, -1.0), (
                    f"non-monotone alpha on {v.obj}, seed {seed}"
                )
                per_obj[v.obj] = v.alpha

            # The recorded execution is TSC(0): the engine is the home
            # server, reads always return the newest install.
            if recorder.operations:
                result = check_tsc(recorder.history(validate=True), delta=0.0)
                assert result.satisfied, (
                    f"seed {seed}: {result.violation}"
                )

    def test_fuzz_is_deterministic(self):
        """Same seed, same journal — failures reproduce exactly."""
        a, _ = fuzz_physical(SEEDS[0])
        b, _ = fuzz_physical(SEEDS[0])
        assert [e["reply"] for e in a.journal] == [e["reply"] for e in b.journal]


def fuzz_causal(seed):
    rng = random.Random(seed)
    wall = SteppingClock(random.Random(seed + 1))
    engine = CausalServerEngine(
        SteppingClock(random.Random(seed + 2)), vector_width=N_CLIENTS,
    )
    recorder = TraceRecorder()
    vclocks = [VectorClock(i, N_CLIENTS) for i in range(N_CLIENTS)]
    sent = {}
    req = 0
    for _ in range(N_FRAMES):
        client = rng.randrange(N_CLIENTS)
        if sent and rng.random() < 0.2:
            key = rng.choice(sorted(sent))
            frame, original = sent[key]
            reply, replayed = drive(engine, key[0], frame)
            assert replayed and reply == original
            continue
        obj = rng.choice(OBJECTS)
        if rng.random() < 0.5:
            alpha = vclocks[client].tick()
            birth = wall()
            version = LogicalVersion(
                obj, f"v{req}", alpha=alpha, omega=alpha,
                writer=client, beta=None, birth=birth,
            )
            frame = {"kind": messages.WRITE, "version": version, "req": req}
            reply, replayed = drive(engine, client, frame)
            assert not replayed and reply["installed"]
            recorder.record_write(client, obj, f"v{req}", birth, ltime=alpha)
        else:
            frame = {
                "kind": messages.FETCH, "obj": obj,
                "context": vclocks[client].now(), "req": req,
            }
            reply, replayed = drive(engine, client, frame)
            assert not replayed
            version = reply["version"]
            vclocks[client].merge(version.alpha)
            recorder.record_read(
                client, obj, version.value, wall(), ltime=version.alpha
            )
        sent[(client, req)] = (frame, reply)
        req += 1
    return engine, recorder


class TestCausalFuzz:
    def test_invariants_and_tcc_hold_for_every_seed(self):
        for seed in SEEDS:
            engine, recorder = fuzz_causal(seed)
            # Knowledge dominates every installed alpha (the server's
            # soundness invariant for ending times).
            for version in engine.store.values():
                assert not (
                    engine.knowledge.compare(version.alpha).name == "BEFORE"
                )
            if recorder.operations:
                result = check_tcc(recorder.history(validate=True), delta=1e9)
                assert result.satisfied, f"seed {seed}: {result.violation}"

    def test_fuzz_is_deterministic(self):
        a, _ = fuzz_causal(SEEDS[0])
        b, _ = fuzz_causal(SEEDS[0])
        assert a.writes_installed == b.writes_installed
        assert a.requests == b.requests


def test_reply_cache_never_leaks_across_clients():
    """(client, req) is the dedup key: the same req id from a different
    client must execute, not replay."""
    rng = random.Random(42)
    engine = ServerEngine(SteppingClock(rng))
    frame = {"kind": messages.WRITE, "obj": "x", "value": "a", "req": 0}
    r1, replayed1 = drive(engine, 1, frame)
    frame2 = {"kind": messages.WRITE, "obj": "x", "value": "b", "req": 0}
    r2, replayed2 = drive(engine, 2, frame2)
    assert not replayed1 and not replayed2
    assert engine.writes_installed == 2
    assert r2["alpha"] > r1["alpha"]
