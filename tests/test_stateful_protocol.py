"""Model-based (stateful) testing of the lifetime cache protocol.

Hypothesis drives random scenarios against a live cluster: concurrent
bursts of operations across clients, time advancement, and transient
partitions.  At the end of every scenario the recorded execution must
satisfy the variant's criterion and the session guarantees.

One modeling constraint matters (and the first version of this test
caught it): the paper's sites execute operations *sequentially*.  Each
burst therefore issues at most one operation per client and waits for all
of them — concurrency comes from different clients' operations genuinely
overlapping in simulated time, never from pipelining a single site.
"""

import math

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, rule

from repro.checkers import check_cc, check_sc, session_guarantee_report
from repro.protocol import Cluster

OBJECTS = ["X", "Y", "Z"]

#: One client's action in a burst: None (idle) or (is_write, object).
action = st.one_of(
    st.none(),
    st.tuples(st.booleans(), st.sampled_from(OBJECTS)),
)


class CacheProtocolMachine(RuleBasedStateMachine):
    variant = "sc"
    delta = math.inf

    @initialize(seed=st.integers(0, 2**16))
    def setup(self, seed):
        self.cluster = Cluster(
            n_clients=3,
            n_servers=2,
            variant=self.variant,
            delta=self.delta,
            seed=seed,
            retry_timeout=0.3,
        )

    def _await(self, events, horizon=10.0):
        deadline = self.cluster.sim.now + horizon
        while (
            any(not e.triggered for e in events)
            and self.cluster.sim.now < deadline
            and self.cluster.sim.pending
        ):
            self.cluster.sim.step()
        assert all(e.triggered for e in events), "an operation hung"

    @rule(actions=st.tuples(action, action, action))
    def concurrent_burst(self, actions):
        """One operation per (acting) client, issued simultaneously."""
        events = []
        for client, act in zip(self.cluster.clients, actions):
            if act is None:
                continue
            is_write, obj = act
            if is_write:
                value = self.cluster.values.next_value(client.node_id)
                events.append(client.write(obj, value))
            else:
                events.append(client.read(obj))
        self._await(events)

    @rule(dt=st.floats(0.01, 0.5))
    def advance_time(self, dt):
        self.cluster.run(until=self.cluster.sim.now + dt)

    @rule(client=st.integers(0, 2), outage=st.floats(0.05, 0.5))
    def transient_partition(self, client, outage):
        node = self.cluster.clients[client].node_id
        network = self.cluster.network
        network.partition(node)
        self.cluster.run(until=self.cluster.sim.now + outage)
        network.heal(node)
        # Let retransmissions settle before the next burst.
        self.cluster.run(until=self.cluster.sim.now + 1.0)

    def teardown(self):
        self.cluster.run(until=self.cluster.sim.now + 5.0)
        history = self.cluster.history()
        stats = self.cluster.aggregate_stats()
        assert len(history) == stats.reads + stats.writes, "operations hung"
        if self.variant in ("sc", "tsc"):
            assert check_sc(history), "trace violates SC"
        else:
            assert check_cc(history), "trace violates CC"
        assert not any(session_guarantee_report(history).values())


class TestStatefulSC(CacheProtocolMachine.TestCase):
    settings = settings(max_examples=12, stateful_step_count=12, deadline=None)


class TCCMachine(CacheProtocolMachine):
    variant = "tcc"
    delta = 0.5


class TestStatefulTCC(TCCMachine.TestCase):
    settings = settings(max_examples=10, stateful_step_count=10, deadline=None)
