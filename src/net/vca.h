/**
 * @file
 * Table-driven virtual-channel allocation (paper II-A3).
 *
 * The VCA table is addressed by the four-tuple
 * <prev_node_id, flow_id, next_node_id, next_flow_id> computed during
 * route computation; each lookup yields a set of weighted candidate
 * next-hop VCs. On top of the candidate set, a VcaMode selects the
 * allocation discipline:
 *  - Dynamic: weighted-random among free candidates (the default table
 *    lists all VCs with equal weight);
 *  - StaticSet: the table itself restricts candidates (e.g. one VC per
 *    flow or per phase); allocation is weighted-random within the set;
 *  - Edvca: exclusive dynamic VCA — a packet may only enter a VC that
 *    currently holds (or is owned by) its own flow, or an empty, free
 *    VC; guarantees per-flow in-order delivery;
 *  - Faa: flow-aware allocation — among allowed candidates pick the one
 *    with the most free downstream space (ties broken randomly).
 *
 * The occupancy queries EDVCA and FAA rely on — VcBuffer::
 * exclusively_holds, logically_empty and free_slots on the candidate
 * downstream buffers — are lock-free producer-side views (the
 * allocating router *is* the buffers' producer), exact with respect to
 * every push the router has performed and to credits committed at the
 * consumer's negedge (docs/ENGINE.md, "VcBuffer memory model").
 *
 * Tables are staged and sort-merged at freeze like RoutingTable's.
 */
#ifndef HORNET_NET_VCA_H
#define HORNET_NET_VCA_H

#include <compare>
#include <cstdint>
#include <string>

#include "common/flat_table.h"
#include "common/types.h"

namespace hornet::net {

/** Allocation discipline applied on top of the table candidates. */
enum class VcaMode
{
    Dynamic,   ///< weighted-random among free candidates
    StaticSet, ///< table-restricted candidates, weighted-random within
    Edvca,     ///< exclusive dynamic VCA (per-flow in-order delivery)
    Faa,       ///< flow-aware: most free downstream space wins
};

/** Parse "dynamic" / "static" / "edvca" / "faa"; fatal() otherwise. */
VcaMode vca_mode_from_string(const std::string &s);

/** Printable name of a mode. */
const char *to_string(VcaMode mode);

/** One weighted candidate VC. */
struct VcaResult
{
    /** Candidate next-hop virtual channel. */
    VcId vc = kInvalidVc;
    /** Selection propensity among the entry's candidates. */
    double weight = 1.0;

    /** Same VC: a duplicate add() accumulates weight at freeze. */
    bool same_option(const VcaResult &o) const { return vc == o.vc; }
};

/** Key of a VCA table entry. */
struct VcaKey
{
    /** Node the packet arrived from. */
    NodeId prev_node;
    /** Flow id carried by the packet. */
    FlowId flow;
    /** Next hop chosen during route computation. */
    NodeId next_node;
    /** Flow id after this hop's renaming. */
    FlowId next_flow;

    /** Field-wise equality and lexicographic order (the freeze sort
     *  order). */
    auto operator<=>(const VcaKey &) const = default;
};

/** Hash functor for VcaKey (flat-table slot placement). */
struct VcaKeyHash
{
    /** Mix the four key fields into a table hash. */
    std::size_t
    operator()(const VcaKey &k) const
    {
        std::uint64_t h = k.flow * 0x9e3779b97f4a7c15ull;
        h ^= k.next_flow * 0xbf58476d1ce4e5b9ull + (h >> 31);
        h ^= (static_cast<std::uint64_t>(k.prev_node) * 2654435761u) ^
             (static_cast<std::uint64_t>(k.next_node) << 17);
        h ^= h >> 29;
        return static_cast<std::size_t>(h);
    }
};

/**
 * One node's VCA table. A missing entry means "all next-hop VCs with
 * equal weight" (pure dynamic VCA), so tables only need populating for
 * restricted schemes.
 *
 * add() stages records; freeze() sort-merges them into a
 * single-probe common::FlatTable for the per-packet stage-A lookup
 * (Router::try_vc_allocate). lookup() before freeze() and add() after
 * it panic.
 */
class VcaTable
{
  public:
    /** The candidate-set view lookups return. */
    using Options = common::FlatEntry<VcaResult>;

    /** Stage a candidate VC for the four-tuple key; a repeated VC
     *  accumulates its weight at freeze. Non-finite or non-positive
     *  weights are fatal; panics once the table is frozen. */
    void add(const VcaKey &key, const VcaResult &result);

    /** Candidate set for the key, or nullptr (= all VCs, equal weight).
     *  Panics before freeze(). */
    const Options *lookup(const VcaKey &key) const;

    /** Sort-merge the staged records into the frozen flat form (slots
     *  and the packed candidate slab carved from @p arena; null falls
     *  back to a private arena). Idempotent. */
    void
    freeze(common::Arena *arena = nullptr)
    {
        staged_.freeze(arena, [](const VcaKey &, const VcaResult &) {});
    }

    /** Share a donor's frozen flat table instead of building one (the
     *  sim::SystemBlueprint seam; see RoutingTable::adopt, which this
     *  mirrors exactly). */
    void adopt(const VcaTable &donor) { staged_.adopt(donor.staged_); }

    /** True once freeze() (or adopt()) has run. */
    bool frozen() const { return staged_.frozen(); }

    /** Number of frozen entries (keys); 0 before freeze(). */
    std::size_t size() const { return staged_.size(); }

    /** One-line phase/size/probe diagnostics for panic messages. */
    std::string describe() const { return staged_.describe(); }

  private:
    common::StagedTable<VcaKey, VcaResult, VcaKeyHash> staged_;
};

} // namespace hornet::net

#endif // HORNET_NET_VCA_H
