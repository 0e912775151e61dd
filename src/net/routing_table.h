/**
 * @file
 * Table-driven routing (paper II-A2).
 *
 * Per-node routing tables are addressed by the flow id and incoming
 * direction <prev_node_id, flow_id>; each entry is a set of weighted
 * next-hop results {<next_node_id, next_flow_id, weight>, ...}. When a
 * set contains more than one option, one is selected at random with
 * propensity proportional to its weight, and the packet's flow id is
 * renamed to next_flow_id. A packet injected at node n is looked up
 * with prev_node_id == n.
 *
 * Delivery is expressed as next_node_id == the node itself.
 *
 * The builders only add(): each call appends a (key, option) record.
 * freeze() sort-merges the records (common::StagedTable: first-add
 * option order, duplicate weights accumulated in add order), rejects
 * entries that arrive from or route to a non-neighbour, and bulk-loads
 * a single-probe common::FlatTable — the only form lookups read.
 */
#ifndef HORNET_NET_ROUTING_TABLE_H
#define HORNET_NET_ROUTING_TABLE_H

#include <compare>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/flat_table.h"
#include "common/rng.h"
#include "common/types.h"

namespace hornet::net {

/** One weighted next-hop result. */
struct RouteResult
{
    /** Next hop (== the routing node itself for delivery). */
    NodeId next_node = kInvalidNode;
    /** Flow id the packet is renamed to on this hop. */
    FlowId next_flow = kInvalidFlow;
    /** Selection propensity among the entry's options. */
    double weight = 1.0;

    /** Same next hop and renamed flow: a duplicate add() of this
     *  option accumulates weight instead of adding a second one. */
    bool
    same_option(const RouteResult &o) const
    {
        return next_node == o.next_node && next_flow == o.next_flow;
    }
};

/** Key of a routing-table entry. */
struct RouteKey
{
    /** Node the packet arrived from (== this node for injection). */
    NodeId prev_node;
    /** Flow id carried by the packet. */
    FlowId flow;

    /** Field-wise equality and (prev_node, flow) order — the order
     *  freeze() sorts staged records by. */
    auto operator<=>(const RouteKey &) const = default;
};

/** Hash functor for RouteKey (flat-table slot placement). */
struct RouteKeyHash
{
    /** Mix both key fields into a table hash. */
    std::size_t
    operator()(const RouteKey &k) const
    {
        std::uint64_t h = k.flow * 0x9e3779b97f4a7c15ull;
        h ^= (static_cast<std::uint64_t>(k.prev_node) + 0x7f4a7c15u) *
             0xbf58476d1ce4e5b9ull;
        h ^= h >> 29;
        return static_cast<std::size_t>(h);
    }
};

/** One node's routing table (staged records, then frozen — see the
 *  file comment). */
class RoutingTable
{
  public:
    /** The option-set view lookups return. */
    using Options = common::FlatEntry<RouteResult>;

    /** Table of node @p node (the delivery sentinel), linked to
     *  @p neighbors: entries may arrive from and route to those nodes
     *  or @p node itself. */
    RoutingTable(NodeId node, std::vector<NodeId> neighbors)
        : node_(node), neighbors_(std::move(neighbors))
    {}

    /** Stage a weighted next-hop option for <prev, flow>; adding an
     *  option that already exists accumulates its weight at freeze.
     *  Non-finite or non-positive weights are fatal; panics once the
     *  table is frozen. */
    void add(NodeId prev_node, FlowId flow, const RouteResult &result);

    /** All options for <prev, flow>, or nullptr when absent. The view
     *  is stable for the frozen storage's lifetime. Panics before
     *  freeze(). */
    const Options *lookup(NodeId prev_node, FlowId flow) const;

    /** Weighted random pick among the options (panics when absent). */
    const RouteResult &pick(NodeId prev_node, FlowId flow, Rng &rng) const;

    /**
     * Weighted random pick among already-looked-up options: the hot
     * path pairs one lookup() with one pick_from() instead of paying
     * the probe twice. A single-option entry draws nothing; a
     * multi-option entry draws one uniform scaled by the precomputed
     * total weight and subtract-scans in option order. @p opts must be
     * non-empty.
     */
    const RouteResult &
    pick_from(const Options &opts, Rng &rng) const
    {
        if (opts.count == 1)
            return opts.front();
        double r = rng.uniform() * opts.total_weight;
        for (std::uint32_t i = 0; i + 1 < opts.count; ++i) {
            r -= opts[i].weight;
            if (r < 0.0)
                return opts[i];
        }
        return opts[opts.count - 1];
    }

    /** Apply @p fn(key, options) to every entry, before or after
     *  freeze(). Before it, this runs the validating merge pass and the
     *  views are valid only during the call. */
    void for_each_entry(
        const std::function<void(const RouteKey &, const Options &)> &fn)
        const;

    /**
     * Merge the staged records and bulk-load the frozen flat form,
     * carving slots and the packed option slab from @p arena (the
     * owning router's placement-group arena; null falls back to a
     * private arena). Panics, with describe(), on an entry that
     * arrives from or routes to a non-neighbour. Idempotent; after it,
     * add() panics.
     */
    void freeze(common::Arena *arena = nullptr);

    /**
     * Share a donor's frozen flat table instead of building one, so
     * per-run Systems instantiated from a sim::SystemBlueprint skip the
     * build+freeze pass and share one read-only table. Panics unless
     * this table is empty and unfrozen and @p donor is frozen. The
     * donor's storage must outlive this table; adopting an adopter is
     * fine. Afterwards frozen() holds and add() panics.
     */
    void adopt(const RoutingTable &donor) { staged_.adopt(donor.staged_); }

    /** True once freeze() (or adopt()) has run. */
    bool frozen() const { return staged_.frozen(); }

    /** Number of frozen entries (keys); 0 before freeze(). */
    std::size_t size() const { return staged_.size(); }

    /** One-line phase/size/probe diagnostics for panic messages. */
    std::string describe() const { return staged_.describe(); }

  private:
    /** The merge pass's per-option check: panics on a prev_node or
     *  next_node that is neither this node nor a neighbour. */
    void validate(const RouteKey &k, const RouteResult &r) const;

    NodeId node_;
    std::vector<NodeId> neighbors_;
    common::StagedTable<RouteKey, RouteResult, RouteKeyHash> staged_;
};

/**
 * Flows deliverable at @p node according to its routing table: the
 * next_flow of every option whose next_node is the node itself (the
 * delivery sentinel), sorted and deduplicated. This is the flow set
 * System::freeze_tables() registers with the tile's FlowStatsTable;
 * sim::SystemBlueprint precomputes it once per node so instantiated
 * systems skip the walk. Works before and after freeze().
 */
std::vector<FlowId> deliverable_flows(const RoutingTable &table, NodeId node);

} // namespace hornet::net

#endif // HORNET_NET_ROUTING_TABLE_H
