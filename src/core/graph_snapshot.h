#ifndef GRAPHTEMPO_CORE_GRAPH_SNAPSHOT_H_
#define GRAPHTEMPO_CORE_GRAPH_SNAPSHOT_H_

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/aggregation.h"
#include "core/temporal_graph.h"

/// \file
/// Binary snapshot (de)serialization of `TemporalGraph` (docs/STORAGE.md).
///
/// A snapshot is a storage/snapshot.h container whose sections carry the
/// graph's columnar representation directly: dictionary blocks, RLE-compressed
/// presence columns, raw attribute code arrays — plus the per-time-point
/// mutation generations, so a query engine restarted from a snapshot keeps
/// the cache-validity bookkeeping it had at save time (a result cache or
/// spilled layer stamped `generation g` stays valid after restart exactly
/// when it was valid before).
///
/// Loading decodes dictionaries and code arrays eagerly (they are cheap and
/// needed for any query) but hands presence columns to `PresenceIndex`
/// still compressed — each column decodes on first touch, so boot cost is
/// proportional to what the workload reads. The columns are the graph's
/// only presence store; nothing else is built from them at load.
///
/// Every validation failure — bad magic, checksum, truncation, out-of-range
/// ids or codes, wrong counts — fails closed: nullopt plus one diagnostic,
/// never a partially restored graph.

namespace graphtempo {

/// Serializes `graph` to `path` (atomic temp + rename). Counts
/// `storage/snapshot_save` and `storage/snapshot_bytes`. False + one
/// diagnostic on failure.
bool SaveGraphSnapshot(const TemporalGraph& graph, const std::string& path,
                       std::string* error);

/// Restores a graph from `path`. Counts `storage/snapshot_load` on success,
/// `storage/snapshot_load_errors` on failure. nullopt + one diagnostic on
/// any validation failure.
std::optional<TemporalGraph> LoadGraphSnapshot(const std::string& path,
                                               std::string* error);

/// Serializes a materialized roll-up layer (one `AggregateGraph` per time
/// point) to bytes — the engine's spill-tier format for subset layers and
/// large cached aggregate results: each graph's codec, then its code-ordered
/// rows as they are (docs/STORAGE.md §4). Canonical: decode(encode(x)) == x
/// row for row.
std::string EncodeAggregateGraphs(const std::vector<AggregateGraph>& layers);

/// Inverse of EncodeAggregateGraphs. False + one diagnostic on malformed
/// bytes (a corrupt spill file must read as a miss, not a wrong answer).
bool DecodeAggregateGraphs(std::string_view bytes,
                           std::vector<AggregateGraph>* out, std::string* error);

}  // namespace graphtempo

#endif  // GRAPHTEMPO_CORE_GRAPH_SNAPSHOT_H_
