"""Unit tests for the message-passing agent layer."""

import math

import pytest

from conftest import make_tiny_network
from repro.compute.cru import LedgerPool
from repro.core.agents import (
    BSAgent,
    SPAgent,
    UEAgent,
    _CandidateInfo,
    build_ue_agents,
)
from repro.core.matching import MatchingContext
from repro.core.preferences import dmra_price_term, dmra_slack_term
from repro.core.messages import (
    AssociationGrant,
    CloudFallbackNotice,
    ResourceBroadcast,
    ServiceRequest,
    from_wire,
    to_wire,
)
from repro.dist import DistributedDMRAAllocator, FaultyChannel
from repro.econ.pricing import PaperPricing
from repro.errors import AllocationError, ConfigurationError
from repro.experiments.extensions import stale_broadcast_plan
from repro.model.entities import BaseStation, UserEquipment
from repro.model.geometry import Point
from repro.radio.channel import build_radio_map
from repro.radio.sinr import LinkBudget

PRICING = PaperPricing(base_price=1.0, cross_sp_markup=2.0, distance_weight=0.01)


def make_ue(ue_id=0, sp_id=0, crus=4):
    return UserEquipment(
        ue_id=ue_id,
        sp_id=sp_id,
        position=Point(100, 0),
        service_id=0,
        cru_demand=crus,
        rate_demand_bps=2e6,
    )


def make_bs_agent(bs_id=0, sp_id=0, crus=None, rrbs=10):
    return BSAgent(
        BaseStation(
            bs_id=bs_id,
            sp_id=sp_id,
            position=Point(0, 0),
            cru_capacity=crus if crus is not None else {0: 20, 1: 20},
            rrb_capacity=rrbs,
        )
    )


def request(ue_id=0, sp_id=0, bs_id=0, service_id=0, crus=4, rrbs=2, f_u=3):
    return ServiceRequest(
        ue_id=ue_id,
        sp_id=sp_id,
        target_bs_id=bs_id,
        service_id=service_id,
        cru_demand=crus,
        rrbs_required=rrbs,
        coverage_count=f_u,
    )


def broadcast(bs_id=0, crus=None, rrbs=10):
    return ResourceBroadcast(
        bs_id=bs_id,
        remaining_crus=crus if crus is not None else {0: 20, 1: 20},
        remaining_rrbs=rrbs,
    )


class TestUEAgent:
    def two_bs_agent(self, rho=0.0):
        return UEAgent(
            make_ue(),
            candidates=[
                _CandidateInfo(bs_id=0, price_per_cru=2.0, rrbs_required=1),
                _CandidateInfo(bs_id=1, price_per_cru=5.0, rrbs_required=2),
            ],
            rho=rho,
        )

    def test_proposes_cheapest_fitting_bs(self):
        agent = self.two_bs_agent()
        agent.observe(broadcast(0))
        agent.observe(broadcast(1))
        message = agent.propose()
        assert isinstance(message, ServiceRequest)
        assert message.target_bs_id == 0
        assert message.coverage_count == 2

    def test_skips_full_bs_and_prunes_it(self):
        agent = self.two_bs_agent()
        agent.observe(broadcast(0, crus={0: 2, 1: 20}))  # 2 < demand of 4
        agent.observe(broadcast(1))
        message = agent.propose()
        assert message.target_bs_id == 1
        assert agent.candidate_bs_ids == (1,)

    def test_cloud_fallback_when_all_full(self):
        agent = self.two_bs_agent()
        agent.observe(broadcast(0, rrbs=0))
        agent.observe(broadcast(1, crus={0: 0, 1: 0}))
        message = agent.propose()
        assert isinstance(message, CloudFallbackNotice)
        assert agent.gave_up

    def test_silent_once_associated(self):
        agent = self.two_bs_agent()
        agent.observe(broadcast(0))
        agent.receive_grant(
            AssociationGrant(bs_id=0, ue_id=0, service_id=0, crus=4, rrbs=1)
        )
        assert agent.propose() is None

    def test_misaddressed_grant_rejected(self):
        agent = self.two_bs_agent()
        with pytest.raises(AllocationError):
            agent.receive_grant(
                AssociationGrant(bs_id=0, ue_id=9, service_id=0, crus=4, rrbs=1)
            )

    def test_rho_prefers_emptier_bs(self):
        """With a huge rho, the emptier (but pricier) BS wins."""
        agent = self.two_bs_agent(rho=1000.0)
        agent.observe(broadcast(0, crus={0: 4, 1: 0}, rrbs=1))  # slack 5
        agent.observe(broadcast(1))  # slack 30
        message = agent.propose()
        assert message.target_bs_id == 1

    def test_coverage_count_tracks_broadcasts(self):
        agent = self.two_bs_agent()
        agent.observe(broadcast(0))
        agent.observe(broadcast(1))
        assert agent.coverage_count() == 2
        agent.observe(broadcast(1, rrbs=1))  # needs 2 RRBs there
        assert agent.coverage_count() == 1


class TestBSAgent:
    def test_accepts_one_per_service(self):
        agent = make_bs_agent()
        agent.deliver(request(ue_id=0, service_id=0))
        agent.deliver(request(ue_id=1, service_id=0))
        agent.deliver(request(ue_id=2, service_id=1))
        grants = agent.process_round()
        assert len(grants) == 2
        assert {g.service_id for g in grants} == {0, 1}

    def test_same_sp_request_wins(self):
        agent = make_bs_agent(sp_id=0)
        agent.deliver(request(ue_id=0, sp_id=1, f_u=1))
        agent.deliver(request(ue_id=1, sp_id=0, f_u=5))
        (grant,) = agent.process_round()
        assert grant.ue_id == 1  # own subscriber despite larger f_u

    def test_smaller_f_u_wins_within_same_sp(self):
        agent = make_bs_agent(sp_id=0)
        agent.deliver(request(ue_id=0, sp_id=0, f_u=5))
        agent.deliver(request(ue_id=1, sp_id=0, f_u=2))
        (grant,) = agent.process_round()
        assert grant.ue_id == 1

    def test_footprint_breaks_remaining_ties(self):
        agent = make_bs_agent(sp_id=0)
        agent.deliver(request(ue_id=0, sp_id=0, f_u=2, crus=5, rrbs=3))
        agent.deliver(request(ue_id=1, sp_id=0, f_u=2, crus=4, rrbs=2))
        (grant,) = agent.process_round()
        assert grant.ue_id == 1

    def test_rrb_budget_eviction(self):
        agent = make_bs_agent(rrbs=3)
        agent.deliver(request(ue_id=0, service_id=0, rrbs=2, f_u=1))
        agent.deliver(request(ue_id=1, service_id=1, rrbs=2, f_u=2))
        grants = agent.process_round()
        # Combined 4 > 3: the less preferred (larger f_u) pick is evicted.
        assert [g.ue_id for g in grants] == [0]

    def test_mailbox_cleared_between_rounds(self):
        agent = make_bs_agent()
        agent.deliver(request(ue_id=0))
        assert len(agent.process_round()) == 1
        assert agent.process_round() == []

    def test_misrouted_request_rejected(self):
        agent = make_bs_agent(bs_id=0)
        with pytest.raises(AllocationError):
            agent.deliver(request(bs_id=7))

    def test_broadcast_reflects_ledger(self):
        agent = make_bs_agent()
        agent.deliver(request(ue_id=0, crus=4, rrbs=2))
        agent.process_round()
        advertised = agent.broadcast()
        assert advertised.remaining_crus[0] == 16
        assert advertised.remaining_rrbs == 8


class TestSPAgent:
    def test_relays_and_counts(self):
        sp = SPAgent(sp_id=0)
        req = request(sp_id=0)
        assert sp.relay_request(req) is req
        grant = AssociationGrant(bs_id=0, ue_id=0, service_id=0, crus=4, rrbs=1)
        assert sp.relay_grant(grant) is grant
        sp.forward_to_cloud(CloudFallbackNotice(ue_id=5, sp_id=0))
        assert sp.requests_relayed == 1
        assert sp.grants_relayed == 1
        assert sp.cloud_forwards == 1
        assert sp.cloud_ue_ids == {5}

    def test_rejects_foreign_subscribers(self):
        sp = SPAgent(sp_id=0)
        with pytest.raises(AllocationError):
            sp.relay_request(request(sp_id=1))
        with pytest.raises(AllocationError):
            sp.forward_to_cloud(CloudFallbackNotice(ue_id=1, sp_id=1))


class TestDecentralizedAllocator:
    """The agents on ``repro.dist``'s in-process transport."""

    @staticmethod
    def allocator(**kwargs):
        return DistributedDMRAAllocator(
            transport="inproc", pricing=PRICING, **kwargs
        )

    def test_valid_on_tiny_network(self):
        network = make_tiny_network(
            ue_specs=[
                dict(ue_id=0, position=Point(100, 0)),
                dict(ue_id=1, position=Point(350, 0), service_id=1),
            ]
        )
        radio_map = build_radio_map(network, LinkBudget())
        assignment = self.allocator().allocate(network, radio_map)
        assignment.validate(network, radio_map)
        assert assignment.edge_served_count == 2

    def test_sp_relay_statistics_populated(self):
        network = make_tiny_network(
            ue_specs=[dict(ue_id=0, position=Point(100, 0))]
        )
        radio_map = build_radio_map(network, LinkBudget())
        allocator = self.allocator()
        allocator.allocate(network, radio_map)
        sp0 = allocator.last_report["sp"][0]
        assert sp0["requests_relayed"] == 1
        assert sp0["grants_relayed"] == 1

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            self.allocator(rho=-1.0)
        with pytest.raises(ConfigurationError):
            self.allocator(max_rounds=0)


class _Wire:
    """A channel that keeps the frames put on it."""

    def __init__(self):
        self.frames = []

    def send(self, dst, frame):
        self.frames.append(frame)
        return 0


class TestSlackParity:
    """``UEAgent._slack``/``_score`` must equal the direct engine's
    Eq. 17 terms (:func:`dmra_price_term` + :func:`dmra_slack_term`)
    when the agent's broadcast view matches the engine's ledger."""

    def context_and_agent(self, rho, ue_specs=None):
        network = make_tiny_network(
            ue_specs=ue_specs or [dict(ue_id=0, position=Point(100, 0))]
        )
        radio_map = build_radio_map(network, LinkBudget())
        ctx = MatchingContext(
            network=network,
            radio_map=radio_map,
            ledgers=LedgerPool(network.base_stations),
        )
        agent = build_ue_agents(network, radio_map, PRICING, rho)[0]
        return network, ctx, agent

    def sync_broadcasts(self, network, ctx, agent):
        """Deliver broadcasts reflecting the ledger state, as the BS
        agents would at the start of a round."""
        for bs in network.base_stations:
            ledger = ctx.ledgers.ledger(bs.bs_id)
            agent.observe(
                ResourceBroadcast(
                    bs_id=bs.bs_id,
                    remaining_crus={
                        s: ledger.remaining_crus(s) for s in bs.cru_capacity
                    },
                    remaining_rrbs=ledger.remaining_rrbs,
                )
            )

    @pytest.mark.parametrize("rho", [0.0, 10.0, 500.0])
    def test_score_matches_engine_terms(self, rho):
        network, ctx, agent = self.context_and_agent(rho)
        # Consume some resources so the slack term is non-trivial.
        ctx.ledgers.ledger(0).grant(ue_id=9, service_id=0, crus=6, rrbs=3)
        self.sync_broadcasts(network, ctx, agent)
        ue = agent.ue
        for bs_id in agent.candidate_bs_ids:
            expected = dmra_price_term(
                ue, bs_id, ctx, PRICING
            ) + dmra_slack_term(ue.service_id, bs_id, ctx, rho)
            info = agent._candidates[bs_id]
            assert agent._score(info) == pytest.approx(expected)
            ledger = ctx.ledgers.ledger(bs_id)
            assert agent._slack(bs_id) == (
                ledger.remaining_crus(ue.service_id) + ledger.remaining_rrbs
            )

    @pytest.mark.parametrize("rho", [0.0, 10.0])
    def test_zero_slack_limit_matches_engine(self, rho):
        """slack == 0: +inf for rho > 0, bare price for rho = 0 — the
        documented Eq. 17 limit, in both implementations."""
        network, ctx, agent = self.context_and_agent(rho)
        ledger = ctx.ledgers.ledger(0)
        ledger.grant(ue_id=8, service_id=0, crus=20, rrbs=5)
        ledger.grant(ue_id=9, service_id=1, crus=20, rrbs=5)
        self.sync_broadcasts(network, ctx, agent)
        expected = dmra_price_term(agent.ue, 0, ctx, PRICING) + dmra_slack_term(
            agent.ue.service_id, 0, ctx, rho
        )
        got = agent._score(agent._candidates[0])
        assert agent._slack(0) == 0
        if rho > 0:
            assert got == math.inf and expected == math.inf
        else:
            assert got == pytest.approx(expected)

    def test_no_broadcast_branch_scores_price_only(self):
        _network, _ctx, agent = self.context_and_agent(rho=50.0)
        for bs_id in agent.candidate_bs_ids:
            assert agent._slack(bs_id) == -1
            info = agent._candidates[bs_id]
            assert agent._score(info) == info.price_per_cru

    @pytest.mark.parametrize("delay", [1, 2])
    def test_delayed_broadcast_scores_against_the_old_ledger(self, delay):
        """Under the staleness plan the agent's slack tracks the ledger
        state ``delay`` rounds ago, not the current one — and a delayed
        run still yields a valid assignment."""
        network, ctx, agent = self.context_and_agent(rho=10.0)
        # The BS's channel under the plan: every broadcast is held
        # ``delay`` rounds before it reaches the UE.
        wire = _Wire()
        channel = FaultyChannel(wire, stale_broadcast_plan(delay), "bs:0")
        ledger = ctx.ledgers.ledger(0)
        snapshots = []
        for round_no in range(1, delay + 3):
            snapshots.append(
                ledger.remaining_crus(0) + ledger.remaining_rrbs
            )
            broadcast = ResourceBroadcast(
                bs_id=0,
                remaining_crus={s: ledger.remaining_crus(s) for s in (0, 1)},
                remaining_rrbs=ledger.remaining_rrbs,
                seq=round_no,
            )
            channel.send_data(
                "ue:0", {"t": "msg", "msg": to_wire(broadcast)}, round_no
            )
            channel.flush(round_no)
            for frame in wire.frames:
                agent.observe(from_wire(frame["msg"]))
            wire.frames.clear()
            if round_no <= delay:
                assert agent._slack(0) == -1  # nothing arrived yet
            ledger.grant(
                ue_id=100 + round_no, service_id=0, crus=2, rrbs=1
            )
        # The last round, delay + 2, saw the broadcast of round 2.
        assert agent._slack(0) == snapshots[1]

        network2 = make_tiny_network(
            ue_specs=[
                dict(ue_id=i, position=Point(100 + 20 * i, 0))
                for i in range(6)
            ]
        )
        radio_map2 = build_radio_map(network2, LinkBudget())
        allocator = DistributedDMRAAllocator(
            transport="inproc",
            pricing=PRICING,
            fault_plan=stale_broadcast_plan(delay),
        )
        assignment = allocator.allocate(network2, radio_map2)
        assignment.validate(network2, radio_map2)


class TestFreshnessAndEpochs:
    def stamped(self, seq=0, epoch=0, rrbs=10):
        return ResourceBroadcast(
            bs_id=0,
            remaining_crus={0: 20, 1: 20},
            remaining_rrbs=rrbs,
            seq=seq,
            epoch=epoch,
        )

    def agent(self):
        return UEAgent(
            make_ue(),
            candidates=[_CandidateInfo(bs_id=0, price_per_cru=2.0, rrbs_required=1)],
            rho=0.0,
        )

    def test_stale_seq_discarded(self):
        agent = self.agent()
        assert agent.observe(self.stamped(seq=5, rrbs=3))
        assert not agent.observe(self.stamped(seq=4, rrbs=10))
        # The stale broadcast must not overwrite the newer view.
        assert agent._broadcasts[0].remaining_rrbs == 3

    def test_newer_epoch_outranks_larger_seq(self):
        agent = self.agent()
        assert agent.observe(self.stamped(seq=50, epoch=0))
        assert agent.observe(self.stamped(seq=1, epoch=1, rrbs=4))
        assert agent._broadcasts[0].remaining_rrbs == 4

    def test_epoch_bump_disassociates_from_serving_bs(self):
        agent = self.agent()
        agent.observe(self.stamped(seq=1))
        agent.receive_grant(
            AssociationGrant(bs_id=0, ue_id=0, service_id=0, crus=4, rrbs=1)
        )
        assert agent.associated_bs == 0
        # Same epoch: association stands.
        agent.observe(self.stamped(seq=2))
        assert agent.associated_bs == 0
        # Epoch bump from the serving BS: the reservation is gone.
        agent.observe(self.stamped(seq=3, epoch=1))
        assert agent.associated_bs is None
        assert agent.propose() is not None  # re-enters the matching

    def test_stale_epoch_grant_rejected(self):
        agent = self.agent()
        agent.observe(self.stamped(seq=1, epoch=2))
        accepted = agent.receive_grant(
            AssociationGrant(
                bs_id=0, ue_id=0, service_id=0, crus=4, rrbs=1, epoch=1
            )
        )
        assert not accepted
        assert agent.associated_bs is None

    def test_bs_reset_bumps_epoch_and_wipes_ledger(self):
        agent = make_bs_agent()
        agent.deliver(request(ue_id=3))
        agent.process_round()
        assert agent.grant_for(3) is not None
        first = agent.broadcast()
        agent.reset()
        assert agent.epoch == 1
        assert agent.grant_for(3) is None
        second = agent.broadcast()
        # Full capacity again, new epoch, and seq keeps counting so
        # (epoch, seq) stays totally ordered.
        assert second.remaining_crus[0] == 20
        assert second.epoch == 1
        assert second.seq == first.seq + 1

    def test_regrant_path_reissues_booked_grant(self):
        agent = make_bs_agent()
        agent.deliver(request(ue_id=3, crus=4, rrbs=2))
        (granted,) = agent.process_round()
        # A re-proposal from an already-served UE is not double-booked.
        agent.deliver(request(ue_id=3, crus=4, rrbs=2))
        assert agent.process_round() == []
        reissued = agent.grant_for(3)
        assert reissued.crus == granted.crus
        assert reissued.rrbs == granted.rrbs
        assert agent.ledger.remaining_crus(0) == 16

    def test_same_resources_ignores_seq(self):
        a = self.stamped(seq=1)
        assert self.stamped(seq=9).same_resources(a)
        assert not self.stamped(seq=2, rrbs=3).same_resources(a)
        assert not self.stamped(seq=2, epoch=1).same_resources(a)
        assert not a.same_resources(None)


class TestReleaseProtocol:
    """The explicit-release handshake that keeps BS ledgers and UE
    associations consistent under lossy transports."""

    def two_bs_agent(self):
        return UEAgent(
            make_ue(),
            candidates=[
                _CandidateInfo(bs_id=0, price_per_cru=2.0, rrbs_required=1),
                _CandidateInfo(bs_id=1, price_per_cru=5.0, rrbs_required=2),
            ],
            rho=0.0,
        )

    def grant(self, bs_id, epoch=0):
        return AssociationGrant(
            bs_id=bs_id, ue_id=0, service_id=0, crus=4, rrbs=1, epoch=epoch
        )

    def test_duplicate_grant_declined_with_release(self):
        agent = self.two_bs_agent()
        assert agent.receive_grant(self.grant(0))
        # A second BS also answered (our re-sent proposal): keep the
        # first association, release the second booking.
        assert not agent.receive_grant(self.grant(1))
        assert agent.associated_bs == 0
        (notice,) = agent.drain_releases()
        assert (notice.ue_id, notice.bs_id, notice.epoch) == (0, 1, 0)
        assert agent.drain_releases() == []  # drained on read

    def test_grant_from_released_bs_requeues_release(self):
        agent2 = self.two_bs_agent()
        assert agent2.receive_grant(self.grant(0))
        assert not agent2.receive_grant(self.grant(1))
        agent2.drain_releases()
        # The declined BS re-sends the same grant (its release was
        # lost): the UE re-queues the release instead of accepting.
        assert not agent2.receive_grant(self.grant(1))
        (notice,) = agent2.drain_releases()
        assert notice.bs_id == 1

    def test_switching_targets_releases_the_abandoned_proposal(self):
        agent = self.two_bs_agent()
        agent.observe(broadcast(0))
        agent.observe(broadcast(1))
        first = agent.propose()
        assert first.target_bs_id == 0  # cheapest
        # BS 0 fills up before answering; the UE walks to BS 1 and must
        # release the possibly-granted proposal it abandons.
        agent.observe(ResourceBroadcast(
            bs_id=0, remaining_crus={0: 0, 1: 0}, remaining_rrbs=0, seq=1
        ))
        second = agent.propose()
        assert second.target_bs_id == 1
        (notice,) = agent.drain_releases()
        assert notice.bs_id == 0
        assert agent.still_released(0)

    def test_reproposal_rescinds_the_release(self):
        agent = self.two_bs_agent()
        assert agent.receive_grant(self.grant(0))
        assert not agent.receive_grant(self.grant(1))
        agent.drain_releases()
        assert agent.still_released(1)
        # BS 0 crashes (epoch bump) -> the UE re-enters the matching and
        # may legitimately re-propose to the BS it released earlier.
        agent.observe(ResourceBroadcast(
            bs_id=0, remaining_crus={0: 0, 1: 0}, remaining_rrbs=0, epoch=1
        ))
        agent.observe(broadcast(1))
        message = agent.propose()
        assert message.target_bs_id == 1
        # The release for BS 1 is rescinded: a transport must stop
        # re-sending it, or it would free the upcoming booking.
        assert not agent.still_released(1)

    def test_bs_honors_release_only_for_current_epoch_bookings(self):
        agent = make_bs_agent()
        agent.deliver(request(ue_id=0, crus=4, rrbs=2))
        (granted,) = agent.process_round()
        assert granted.ue_id == 0
        # Wrong epoch: the booking belongs to a newer ledger life.
        assert not agent.release(0, epoch=granted.epoch + 1)
        assert agent.ledger.remaining_crus(0) == 16
        # Unknown UE: nothing to free.
        assert not agent.release(99, epoch=granted.epoch)
        # Matching epoch and booked UE: the reservation is freed.
        assert agent.release(0, epoch=granted.epoch)
        assert agent.ledger.remaining_crus(0) == 20
        assert agent.broadcast().remaining_rrbs == 10

    def test_release_notice_round_trips_the_wire(self):
        from repro.core.messages import ReleaseNotice, from_wire, to_wire

        notice = ReleaseNotice(ue_id=3, sp_id=1, bs_id=7, epoch=2)
        payload = to_wire(notice)
        assert payload["k"] == "release"
        assert from_wire(payload) == notice
