// Snapshot/restore for the monitoring system (DESIGN.md §14): serializes
// everything plan-affecting — task sets, routing metadata, the deployed
// tree forest with its exact iteration order, and the adaptive planner's
// throttle bookkeeping (adjustment stamps) — into the wire format, such
// that a daemon restarted from the image continues BIT-IDENTICALLY to the
// one that was captured (property-tested over seeded churn sequences).
// Nothing measured enters an image, so identical runs capture identical
// bytes.
//
// What is deliberately NOT serialized:
//   - planner pair sets: restore re-derives them from the restored tasks
//     (rewrite + dedup), and MonitoringSystem::restore_planner REMO_VALIDATEs
//     that the rebuilt set matches the captured plan — the snapshot cannot
//     drift from the task set because it never stores both;
//   - the evaluation engine's items-template cache: a template is a pure
//     function of the pair set, so a cold cache affects speed, never plans;
//   - liveness-tracker runtime state: a restored daemon re-arms delivery
//     deadlines from scratch (documented restart semantics; the lifetime
//     RepairReport counters ARE carried).
//
// Capture is cheap and non-perturbing by construction: the daemon captures
// at epoch boundaries, where the facade is already planned (status() ran),
// so planner_state() never triggers a replan with a different clock than
// the run loop would have used.
#pragma once

#include <cstdint>
#include <vector>

#include "federation/federated_system.h"
#include "service/wire.h"

namespace remo::service {

/// Serializes the full federated system (routing + every shard core) into
/// `w`. `now` is the caller's planner clock, used only to settle any
/// pending lazy replan before capture (a no-op at daemon epoch
/// boundaries).
void encode_system(wire::Writer& w, federation::FederatedMonitoringSystem& sys,
                   double now);

/// Restores `sys` — freshly constructed with the same SystemModel and
/// options as the captured one — from a reader positioned at an
/// encode_system image. Returns false (and leaves the reader failed) on a
/// malformed image; aborts via REMO_ASSERT on a configuration mismatch
/// (wrong shard count / node universe).
bool decode_system(wire::Reader& r, federation::FederatedMonitoringSystem& sys);

/// Convenience whole-image helpers (stream header + one kSnapshot record)
/// for tests and tools. The daemon embeds encode/decode_system inside its
/// own image instead (it adds bus and clock state on top).
std::vector<std::uint8_t> capture(federation::FederatedMonitoringSystem& sys,
                                  double now);
bool restore(const std::vector<std::uint8_t>& image,
             federation::FederatedMonitoringSystem& sys);

// ---- building blocks (shared with the daemon's image) ----------------------

void encode_task(wire::Writer& w, const MonitoringTask& t);
MonitoringTask decode_task(wire::Reader& r);

void encode_topology(wire::Writer& w, const Topology& topo);
/// Rebuilds the forest: trees are re-attached parents-first from the
/// serialized child lists, then their member/child iteration orders are
/// restored bit-exactly (MonitoringTree::restore_iteration_order).
bool decode_topology(wire::Reader& r, Topology& out);

}  // namespace remo::service
