"""Unit tests for the BS resource ledgers."""

import pytest

from repro.compute.cru import BSLedger, LedgerPool
from repro.errors import CapacityError, ConfigurationError, UnknownEntityError
from repro.model.entities import BaseStation
from repro.model.geometry import Point


def make_bs(bs_id=0, crus=None, rrbs=10):
    return BaseStation(
        bs_id=bs_id,
        sp_id=0,
        position=Point(0, 0),
        cru_capacity=crus if crus is not None else {0: 20, 1: 15},
        rrb_capacity=rrbs,
    )


class TestGrant:
    def test_grant_reserves_both_resources(self):
        ledger = BSLedger(make_bs())
        grant = ledger.grant(ue_id=1, service_id=0, crus=5, rrbs=3)
        assert grant.bs_id == 0 and grant.ue_id == 1
        assert ledger.remaining_crus(0) == 15
        assert ledger.remaining_crus(1) == 15  # other service untouched
        assert ledger.remaining_rrbs == 7
        assert ledger.served_ue_ids == {1}

    def test_insufficient_crus_rejected_atomically(self):
        ledger = BSLedger(make_bs())
        with pytest.raises(CapacityError, match="CRU"):
            ledger.grant(ue_id=1, service_id=0, crus=21, rrbs=1)
        # Nothing was deducted.
        assert ledger.remaining_crus(0) == 20
        assert ledger.remaining_rrbs == 10

    def test_insufficient_rrbs_rejected_atomically(self):
        ledger = BSLedger(make_bs())
        with pytest.raises(CapacityError, match="RRB"):
            ledger.grant(ue_id=1, service_id=0, crus=5, rrbs=11)
        assert ledger.remaining_crus(0) == 20
        assert ledger.remaining_rrbs == 10

    def test_unhosted_service_has_zero_capacity(self):
        ledger = BSLedger(make_bs())
        assert ledger.remaining_crus(9) == 0
        with pytest.raises(CapacityError):
            ledger.grant(ue_id=1, service_id=9, crus=1, rrbs=1)

    def test_double_grant_rejected(self):
        ledger = BSLedger(make_bs())
        ledger.grant(ue_id=1, service_id=0, crus=2, rrbs=1)
        with pytest.raises(ConfigurationError, match="already holds"):
            ledger.grant(ue_id=1, service_id=1, crus=2, rrbs=1)

    def test_non_positive_amounts_rejected(self):
        ledger = BSLedger(make_bs())
        with pytest.raises(ConfigurationError):
            ledger.grant(ue_id=1, service_id=0, crus=0, rrbs=1)
        with pytest.raises(ConfigurationError):
            ledger.grant(ue_id=1, service_id=0, crus=1, rrbs=0)

    def test_exact_exhaustion_allowed(self):
        ledger = BSLedger(make_bs())
        ledger.grant(ue_id=1, service_id=0, crus=20, rrbs=10)
        assert ledger.remaining_crus(0) == 0
        assert ledger.remaining_rrbs == 0

    def test_can_grant_mirrors_grant(self):
        ledger = BSLedger(make_bs())
        assert ledger.can_grant(1, 0, 20, 10)
        assert not ledger.can_grant(1, 0, 21, 10)
        assert not ledger.can_grant(1, 0, 20, 11)
        assert not ledger.can_grant(1, 9, 1, 1)
        assert not ledger.can_grant(1, 0, 0, 1)
        ledger.grant(ue_id=1, service_id=0, crus=5, rrbs=5)
        assert not ledger.can_grant(1, 0, 1, 1)  # double grant


class TestRelease:
    def test_release_returns_resources(self):
        ledger = BSLedger(make_bs())
        ledger.grant(ue_id=1, service_id=0, crus=5, rrbs=3)
        released = ledger.release(1)
        assert released.crus == 5 and released.rrbs == 3
        assert ledger.remaining_crus(0) == 20
        assert ledger.remaining_rrbs == 10
        assert ledger.served_ue_ids == frozenset()

    def test_release_unknown_ue_rejected(self):
        ledger = BSLedger(make_bs())
        with pytest.raises(UnknownEntityError):
            ledger.release(42)

    def test_grant_release_grant_cycle(self):
        ledger = BSLedger(make_bs())
        for _ in range(5):
            ledger.grant(ue_id=1, service_id=0, crus=20, rrbs=10)
            ledger.release(1)
        ledger.check_invariants()
        assert ledger.remaining_crus(0) == 20


class TestUtilizationAndInvariants:
    def test_utilization_fractions(self):
        ledger = BSLedger(make_bs())  # 35 CRUs total, 10 RRBs
        cru_util, rrb_util = ledger.utilization()
        assert cru_util == 0.0 and rrb_util == 0.0
        ledger.grant(ue_id=1, service_id=0, crus=7, rrbs=5)
        cru_util, rrb_util = ledger.utilization()
        assert cru_util == pytest.approx(7 / 35)
        assert rrb_util == pytest.approx(0.5)

    def test_check_invariants_passes_normally(self):
        ledger = BSLedger(make_bs())
        ledger.grant(ue_id=1, service_id=0, crus=5, rrbs=3)
        ledger.grant(ue_id=2, service_id=1, crus=4, rrbs=2)
        ledger.check_invariants()

    def test_check_invariants_detects_corruption(self):
        ledger = BSLedger(make_bs())
        ledger.grant(ue_id=1, service_id=0, crus=5, rrbs=3)
        ledger._remaining_rrbs += 1  # simulate a bug
        with pytest.raises(CapacityError):
            ledger.check_invariants()


class TestLedgerPool:
    def test_pool_builds_one_ledger_per_bs(self):
        pool = LedgerPool([make_bs(0), make_bs(1), make_bs(2)])
        assert len(pool) == 3
        assert pool.ledger(1).bs_id == 1

    def test_unknown_bs_rejected(self):
        pool = LedgerPool([make_bs(0)])
        with pytest.raises(UnknownEntityError):
            pool.ledger(5)

    def test_all_grants_collects_across_ledgers(self):
        pool = LedgerPool([make_bs(0), make_bs(1)])
        pool.ledger(0).grant(ue_id=1, service_id=0, crus=2, rrbs=1)
        pool.ledger(1).grant(ue_id=2, service_id=1, crus=3, rrbs=2)
        grants = pool.all_grants()
        assert {(g.bs_id, g.ue_id) for g in grants} == {(0, 1), (1, 2)}

    def test_pool_invariant_check(self):
        pool = LedgerPool([make_bs(0), make_bs(1)])
        pool.ledger(0).grant(ue_id=1, service_id=0, crus=2, rrbs=1)
        pool.check_invariants()


class TestGrantAll:
    """The bulk commit equals row-by-row ``grant`` calls."""

    def pool(self):
        pool = LedgerPool(
            [make_bs(0), make_bs(1, crus={0: 8}, rrbs=4), make_bs(2)]
        )
        pool.ledger(1).grant(ue_id=50, service_id=0, crus=2, rrbs=1)
        return pool

    @staticmethod
    def columns(rows):
        import numpy as np

        from repro.compute.cru import GrantColumns

        names = ("bs_ids", "ue_ids", "service_ids", "crus", "rrbs")
        return GrantColumns(**{
            name: np.array([row[k] for row in rows], dtype=np.int64)
            for k, name in enumerate(names)
        })

    @staticmethod
    def state(pool):
        return [
            (l.bs_id, l.remaining_rrbs, l.remaining_crus_by_service(),
             list(l.grants.items()))
            for l in pool
        ]

    def test_same_state_and_order_as_sequential(self):
        rows = [(2, 7, 1, 3, 2), (1, 8, 0, 3, 1), (0, 5, 0, 4, 2),
                (1, 9, 0, 3, 2), (0, 6, 1, 5, 3)]
        bulk, sequential = self.pool(), self.pool()
        committed = bulk.grant_all(self.columns(rows))
        for bs_id, ue_id, service_id, crus, rrbs in rows:
            sequential.ledger(bs_id).grant(ue_id, service_id, crus, rrbs)
        assert self.state(bulk) == self.state(sequential)
        assert committed == tuple(
            g for g in sequential.all_grants() if g.ue_id != 50
        )
        assert [g.ue_id for g in committed] == [5, 6, 8, 9, 7]

    @pytest.mark.parametrize("rows, error", [
        # BS 1 has 8 - 2 = 6 CRUs left after UE 50: the second row overflows.
        ([(1, 8, 0, 4, 1), (1, 9, 0, 3, 1)], CapacityError),
        ([(1, 8, 0, 1, 2), (1, 9, 0, 1, 2)], CapacityError),
        ([(0, 5, 0, 4, 2), (1, 50, 0, 1, 1)], ConfigurationError),
        ([(0, 5, 0, 4, 2), (0, 5, 1, 4, 2)], ConfigurationError),
        ([(0, 5, 0, 0, 2)], ConfigurationError),
        ([(0, 5, 0, 4, 2), (3, 6, 0, 1, 1)], UnknownEntityError),
    ])
    def test_same_error_and_pool_untouched(self, rows, error):
        bulk, sequential = self.pool(), self.pool()
        before = self.state(bulk)
        with pytest.raises(error) as expected:
            for bs_id, ue_id, service_id, crus, rrbs in rows:
                sequential.ledger(bs_id).grant(ue_id, service_id, crus, rrbs)
        with pytest.raises(error) as got:
            bulk.grant_all(self.columns(rows))
        assert str(got.value) == str(expected.value)
        assert self.state(bulk) == before
