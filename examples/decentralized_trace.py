"""Watch decentralized DMRA converge, message by message.

Runs the UE/BS/SP agents on ``repro.dist``'s in-process transport (every
node an object called in turn on this thread) on a small scenario and
prints each round's traffic — who proposed where, who was accepted, who
fell back to the cloud — followed by the per-SP relay statistics.
Finally verifies that the message-passing result is identical to the
direct matching engine's.

Run with::

    python examples/decentralized_trace.py
"""

from repro import DMRAAllocator, ScenarioConfig, build_scenario
from repro.core.agents import SPAgent, UEAgent
from repro.core.messages import CloudFallbackNotice
from repro.dist import DistributedDMRAAllocator


class TracingAllocator(DistributedDMRAAllocator):
    """The in-process deployment with a per-message narration hook."""

    def allocate(self, network, radio_map):
        # Wrap UEAgent.propose so every message is narrated as it is
        # produced, without touching the decision logic.
        original_propose = UEAgent.propose

        def traced_propose(agent):
            message = original_propose(agent)
            if message is None:
                return None
            if isinstance(message, CloudFallbackNotice):
                print(f"    UE {message.ue_id} (SP {message.sp_id}): "
                      f"no feasible BS left -> remote cloud")
            else:
                print(
                    f"    UE {message.ue_id} (SP {message.sp_id}) -> "
                    f"BS {message.target_bs_id} "
                    f"[service {message.service_id}, "
                    f"{message.cru_demand} CRUs, "
                    f"{message.rrbs_required} RRBs, f_u={message.coverage_count}]"
                )
            return message

        original_relay = SPAgent.relay_grant

        def traced_relay(sp_agent, grant):
            print(
                f"    BS {grant.bs_id} accepts UE {grant.ue_id} "
                f"(relayed by SP {sp_agent.sp_id})"
            )
            return original_relay(sp_agent, grant)

        UEAgent.propose = traced_propose
        SPAgent.relay_grant = traced_relay
        try:
            return super().allocate(network, radio_map)
        finally:
            UEAgent.propose = original_propose
            SPAgent.relay_grant = original_relay


def main() -> None:
    # Small and contended: 2 SPs x 2 BSs, 10 UEs, tight radio budgets.
    config = ScenarioConfig.paper(
        sp_count=2,
        bs_per_sp=2,
        service_count=2,
        uplink_bandwidth_hz=1.5e6,  # only 8 RRBs per BS
        cru_capacity_min=15,
        cru_capacity_max=20,
    )
    scenario = build_scenario(config, ue_count=10, seed=4)
    print(scenario.network.describe())
    print("\nmessage trace:")

    # One UE host, so proposals are narrated in UE id order.
    allocator = TracingAllocator(
        transport="inproc", pricing=scenario.pricing, ue_hosts=1
    )
    assignment = allocator.allocate(scenario.network, scenario.radio_map)

    print(f"\nconverged in {assignment.rounds} rounds: "
          f"{assignment.edge_served_count} edge-served, "
          f"{assignment.cloud_count} forwarded to cloud")

    print("\nSP relay statistics:")
    for sp_id, stats in sorted(allocator.last_report["sp"].items()):
        print(
            f"  SP {sp_id}: {stats['requests_relayed']} requests, "
            f"{stats['grants_relayed']} grants, "
            f"{stats['cloud_forwards']} cloud forwards"
        )

    direct = DMRAAllocator(pricing=scenario.pricing).allocate(
        scenario.network, scenario.radio_map
    )
    identical = sorted(direct.association_pairs()) == sorted(
        assignment.association_pairs()
    )
    print(f"\nidentical to the direct matching engine: {identical}")


if __name__ == "__main__":
    main()
