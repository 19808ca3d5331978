"""FaultPlan parsing, determinism, budgets and activation scoping."""

from __future__ import annotations

import pytest

from repro import faults
from repro.faults import (
    FaultPlan,
    FaultRule,
    InjectedFault,
    RetriesExhausted,
    RetryPolicy,
    active_plan,
    fault_sites,
    maybe_fire,
    set_fault_plan,
)


class TestParse:
    def test_defaults(self):
        plan = FaultPlan.parse("decode.block")
        rule = plan._rules["decode.block"]
        assert rule.probability == 1.0
        assert rule.count == 1
        assert rule.seed == 0

    def test_full_rule_and_multiple_sites(self):
        plan = FaultPlan.parse("read.pread:p=0.5:n=2:seed=7, decode.block:n=0")
        assert plan.sites == ("read.pread", "decode.block")
        assert plan._rules["read.pread"].probability == 0.5
        assert plan._rules["read.pread"].count == 2
        assert plan._rules["read.pread"].seed == 7
        assert plan._rules["decode.block"].count is None  # n<=0: unlimited

    def test_unknown_site_rejected(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            FaultPlan.parse("read.prad")

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown fault rule key"):
            FaultPlan.parse("read.pread:q=1")

    def test_malformed_value_rejected(self):
        with pytest.raises(ValueError, match="not a number"):
            FaultPlan.parse("read.pread:p=lots")

    def test_empty_spec_rejected(self):
        with pytest.raises(ValueError, match="arms no sites"):
            FaultPlan.parse(" , ")

    def test_duplicate_site_rejected(self):
        with pytest.raises(ValueError, match="armed twice"):
            FaultPlan.parse("read.pread,read.pread")

    def test_probability_out_of_range(self):
        with pytest.raises(ValueError, match="probability"):
            FaultRule(site="read.pread", probability=1.5)

    def test_sites_catalogue_is_sorted_and_nonempty(self):
        sites = fault_sites()
        assert sites == tuple(sorted(sites))
        assert "read.pread" in sites and "serve.dispatch" in sites


class TestFiring:
    def test_budget_consumed_then_quiet(self):
        plan = FaultPlan.parse("decode.block:n=2")
        fired = [plan.should_fire("decode.block") for _ in range(5)]
        assert fired == [True, True, False, False, False]
        assert plan.fires("decode.block") == 2
        assert plan.stats()["decode.block"] == {"checked": 5, "fired": 2}

    def test_unarmed_site_never_fires(self):
        plan = FaultPlan.parse("decode.block")
        assert not plan.should_fire("read.pread")
        assert plan.fires() == 0

    def test_fire_raises_typed_oserror(self):
        plan = FaultPlan.parse("pool.lease")
        with pytest.raises(InjectedFault) as excinfo:
            plan.fire("pool.lease", "buffer 3")
        assert isinstance(excinfo.value, OSError)
        assert excinfo.value.site == "pool.lease"
        assert excinfo.value.ordinal == 1
        assert "buffer 3" in str(excinfo.value)

    def test_probabilistic_draws_are_deterministic(self):
        draws_a = [
            FaultPlan.parse("read.pread:p=0.5:n=0:seed=42").should_fire("read.pread")
            or False
            for _ in range(1)
        ]
        plan_a = FaultPlan.parse("read.pread:p=0.5:n=0:seed=42")
        plan_b = FaultPlan.parse("read.pread:p=0.5:n=0:seed=42")
        seq_a = [plan_a.should_fire("read.pread") for _ in range(64)]
        seq_b = [plan_b.should_fire("read.pread") for _ in range(64)]
        assert seq_a == seq_b
        assert any(seq_a) and not all(seq_a)
        assert draws_a  # silence the single-draw warmup

    def test_different_seeds_draw_differently(self):
        seqs = []
        for seed in (1, 2):
            plan = FaultPlan.parse(f"read.pread:p=0.5:n=0:seed={seed}")
            seqs.append(tuple(plan.should_fire("read.pread") for _ in range(64)))
        assert seqs[0] != seqs[1]

    def test_same_seed_different_sites_draw_independently(self):
        plan = FaultPlan.parse("read.pread:p=0.5:n=0:seed=9,decode.block:p=0.5:n=0:seed=9")
        a = tuple(plan.should_fire("read.pread") for _ in range(64))
        b = tuple(plan.should_fire("decode.block") for _ in range(64))
        assert a != b


class TestActivation:
    def test_maybe_fire_noop_without_plan(self):
        assert active_plan() is None
        maybe_fire("read.pread")  # must not raise

    def test_set_and_restore_scoping(self):
        previous = set_fault_plan("decode.block")
        assert previous is None
        assert active_plan() is not None
        with pytest.raises(InjectedFault):
            maybe_fire("decode.block")
        restored = set_fault_plan(previous)
        assert restored is not None and restored.sites == ("decode.block",)
        assert active_plan() is None

    def test_env_spec_parsed_lazily_once(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "trainer.poll:n=3")
        monkeypatch.setattr(faults, "_ENV_CHECKED", False)
        monkeypatch.setattr(faults, "_ACTIVE", None)
        plan = active_plan()
        assert plan is not None and plan.sites == ("trainer.poll",)
        # A second call returns the same parsed plan object.
        assert active_plan() is plan

    def test_session_faults_install_and_restore(self):
        from repro.api import Session

        with Session(faults="pool.lease:n=1") as session:
            assert session is not None
            plan = active_plan()
            assert plan is not None and plan.sites == ("pool.lease",)
        assert active_plan() is None


class TestRetryIntegration:
    def test_injected_faults_are_retryable(self):
        plan = FaultPlan.parse("read.pread:n=2")
        set_fault_plan(plan)
        calls = []

        def attempt():
            calls.append(1)
            maybe_fire("read.pread")
            return "ok"

        policy = RetryPolicy(attempts=3, backoff_s=0.0)
        assert policy.call(attempt, site="read.pread") == "ok"
        assert len(calls) == 3  # two injected failures, then success
        assert plan.fires("read.pread") == 2

    def test_exhaustion_chains_last_injected_fault(self):
        set_fault_plan("read.pread:n=0")
        policy = RetryPolicy(attempts=2, backoff_s=0.0)
        with pytest.raises(RetriesExhausted) as excinfo:
            policy.call(lambda: maybe_fire("read.pread"), site="read.pread")
        assert isinstance(excinfo.value.__cause__, InjectedFault)
        assert excinfo.value.attempts == 2
