#include "net/routing_table.h"

#include <algorithm>
#include <cmath>

#include "common/log.h"

namespace hornet::net {

void
RoutingTable::add(NodeId prev_node, FlowId flow, const RouteResult &result)
{
    if (!std::isfinite(result.weight) || result.weight <= 0.0)
        fatal(strcat("routing table at node ", node_,
                     ": weights must be positive and finite, got ",
                     result.weight));
    staged_.stage(RouteKey{prev_node, flow}, result);
}

const RoutingTable::Options *
RoutingTable::lookup(NodeId prev_node, FlowId flow) const
{
    return staged_.lookup(RouteKey{prev_node, flow});
}

const RouteResult &
RoutingTable::pick(NodeId prev_node, FlowId flow, Rng &rng) const
{
    const Options *opts = lookup(prev_node, flow);
    if (opts == nullptr || opts->empty()) {
        panic(strcat("routing table at node ", node_, ": no entry for prev=",
                     prev_node, " flow=", flow, " (", describe(), ")"));
    }
    return pick_from(*opts, rng);
}

void
RoutingTable::for_each_entry(
    const std::function<void(const RouteKey &, const Options &)> &fn) const
{
    staged_.for_each_entry(
        [this](const RouteKey &k, const RouteResult &r) { validate(k, r); },
        fn);
}

void
RoutingTable::freeze(common::Arena *arena)
{
    staged_.freeze(arena, [this](const RouteKey &k, const RouteResult &r) {
        validate(k, r);
    });
}

void
RoutingTable::validate(const RouteKey &k, const RouteResult &r) const
{
    const auto adjacent = [this](NodeId n) {
        return n == node_ || std::find(neighbors_.begin(), neighbors_.end(),
                                       n) != neighbors_.end();
    };
    if (!adjacent(k.prev_node))
        panic(strcat("routing table at node ", node_, ": entry prev=",
                     k.prev_node, " flow=", k.flow,
                     " arrives from non-neighbor ", k.prev_node, " (",
                     describe(), ")"));
    if (!adjacent(r.next_node))
        panic(strcat("routing table at node ", node_, ": entry prev=",
                     k.prev_node, " flow=", k.flow, " routes to non-neighbor ",
                     r.next_node, " (", describe(), ")"));
}

std::vector<FlowId>
deliverable_flows(const RoutingTable &table, NodeId node)
{
    std::vector<FlowId> flows;
    table.for_each_entry(
        [&](const RouteKey &, const RoutingTable::Options &opts) {
            for (const RouteResult &o : opts)
                if (o.next_node == node)
                    flows.push_back(o.next_flow);
        });
    std::sort(flows.begin(), flows.end());
    flows.erase(std::unique(flows.begin(), flows.end()), flows.end());
    return flows;
}

} // namespace hornet::net
