#include "service/snapshot.h"

#include <map>
#include <utility>

#include "common/check.h"

namespace remo::service {

using wire::Reader;
using wire::Writer;

void encode_task(Writer& w, const MonitoringTask& t) {
  w.u32(t.id);
  w.u32(static_cast<std::uint32_t>(t.attrs.size()));
  for (AttrId a : t.attrs) w.u32(a);
  w.u32(static_cast<std::uint32_t>(t.nodes.size()));
  for (NodeId n : t.nodes) w.u32(n);
  w.f64(t.frequency);
  w.u8(static_cast<std::uint8_t>(t.aggregation));
  w.u32(t.top_k);
  w.u8(static_cast<std::uint8_t>(t.reliability));
  w.u32(t.replicas);
  w.u32(static_cast<std::uint32_t>(t.identical_groups.size()));
  for (const auto& group : t.identical_groups) {
    w.u32(static_cast<std::uint32_t>(group.size()));
    for (NodeId n : group) w.u32(n);
  }
  w.u32(t.origin_id);
  w.u32(t.home_shard);
}

MonitoringTask decode_task(Reader& r) {
  MonitoringTask t;
  t.id = r.u32();
  t.attrs.resize(r.u32());
  for (AttrId& a : t.attrs) a = r.u32();
  t.nodes.resize(r.u32());
  for (NodeId& n : t.nodes) n = r.u32();
  t.frequency = r.f64();
  t.aggregation = static_cast<AggType>(r.u8());
  t.top_k = r.u32();
  t.reliability = static_cast<ReliabilityMode>(r.u8());
  t.replicas = r.u32();
  t.identical_groups.resize(r.u32());
  for (auto& group : t.identical_groups) {
    group.resize(r.u32());
    for (NodeId& n : group) n = r.u32();
  }
  t.origin_id = r.u32();
  t.home_shard = r.u32();
  return t;
}

namespace {

void encode_tree(Writer& w, const MonitoringTree& tree) {
  const auto& specs = tree.attr_specs();
  w.u32(static_cast<std::uint32_t>(specs.size()));
  for (const TreeAttrSpec& s : specs) {
    w.u32(s.attr);
    w.u8(static_cast<std::uint8_t>(s.funnel.type()));
    w.u32(s.funnel.k());
    w.f64(s.weight);
  }
  w.f64(tree.avail(kCollectorId));
  w.f64(tree.cost().per_message);
  w.f64(tree.cost().per_value);

  // Members in insertion order — the plan-affecting iteration order the
  // restore must reproduce bit-exactly.
  const auto& members = tree.members();
  w.u32(static_cast<std::uint32_t>(members.size()));
  for (NodeId m : members) {
    w.u32(m);
    w.u32(tree.parent(m));
    w.f64(tree.avail(m));
    for (const std::uint32_t count : tree.local_counts(m)) w.u32(count);
  }
  // Child lists (collector first, then members in insertion order): the
  // structural source the restore attaches from, parents-first.
  w.u32(static_cast<std::uint32_t>(members.size() + 1));
  const auto write_children = [&](NodeId v) {
    const auto& kids = tree.children(v);
    w.u32(v);
    w.u32(static_cast<std::uint32_t>(kids.size()));
    for (NodeId c : kids) w.u32(c);
  };
  write_children(kCollectorId);
  for (NodeId m : members) write_children(m);
}

struct MemberRec {
  Capacity avail = 0;
  std::vector<std::uint32_t> local;
};

bool decode_tree(Reader& r, std::vector<TreeEntry>& entries,
                 std::vector<AttrId> attrs, std::size_t offered,
                 std::size_t collected) {
  std::vector<TreeAttrSpec> specs(r.u32());
  for (TreeAttrSpec& s : specs) {
    s.attr = r.u32();
    const auto type = static_cast<AggType>(r.u8());
    const std::uint32_t k = r.u32();
    s.funnel = FunnelSpec(type, k);
    s.weight = r.f64();
  }
  const Capacity collector_avail = r.f64();
  const double per_message = r.f64();
  const double per_value = r.f64();
  if (!r.ok()) return false;

  std::vector<NodeId> member_order(r.u32());
  std::map<NodeId, MemberRec> recs;
  for (NodeId& m : member_order) {
    m = r.u32();
    r.u32();  // parent — redundant with the child lists below
    MemberRec rec;
    rec.avail = r.f64();
    rec.local.resize(specs.size());
    for (std::uint32_t& v : rec.local) v = r.u32();
    recs.emplace(m, std::move(rec));
  }
  std::vector<std::pair<NodeId, std::vector<NodeId>>> children(r.u32());
  std::map<NodeId, const std::vector<NodeId>*> children_of;
  for (auto& [vertex, kids] : children) {
    vertex = r.u32();
    kids.resize(r.u32());
    for (NodeId& c : kids) c = r.u32();
    children_of[vertex] = &kids;
  }
  if (!r.ok()) return false;

  MonitoringTree tree(std::move(specs), collector_avail,
                      CostModel(per_message, per_value));
  // Re-attach parents-first (BFS over the captured child lists). Every
  // intermediate state is a sub-forest of the captured tree, so its loads
  // are bounded by the captured — feasible — ones and attach cannot fail.
  std::vector<NodeId> frontier{kCollectorId};
  std::size_t attached = 0;
  for (std::size_t i = 0; i < frontier.size(); ++i) {
    const NodeId v = frontier[i];
    const auto kids = children_of.find(v);
    if (kids == children_of.end()) continue;
    for (NodeId c : *kids->second) {
      const auto rec = recs.find(c);
      REMO_ASSERT(rec != recs.end(), "snapshot tree child ", c,
                  " has no member record");
      tree.attach(BuildItem{c, rec->second.local, rec->second.avail}, v);
      ++attached;
      frontier.push_back(c);
    }
  }
  REMO_ASSERT(attached == member_order.size(), "snapshot tree reattached ",
              attached, " of ", member_order.size(),
              " members — child lists disagree with the member list");
  tree.restore_iteration_order(member_order, children);

  TreeEntry entry{std::move(attrs), std::move(tree), offered, collected};
  entries.push_back(std::move(entry));
  return true;
}

void encode_repair(Writer& w, const RepairReport& rr) {
  w.u64(rr.outages_detected);
  w.u64(rr.recoveries_detected);
  w.u64(rr.repair_passes);
  w.u64(rr.repair_messages);
  w.u64(rr.orphans_reattached);
  w.u64(rr.suspects_parked);
  w.u64(rr.members_dropped);
  w.u64(rr.pairs_dropped);
  w.u64(rr.replans_after_outage);
  w.u64(rr.detect_lag_sum);
  w.u64(rr.repair_lag_sum);
}

RepairReport decode_repair(Reader& r) {
  RepairReport rr;
  rr.outages_detected = r.u64();
  rr.recoveries_detected = r.u64();
  rr.repair_passes = r.u64();
  rr.repair_messages = r.u64();
  rr.orphans_reattached = r.u64();
  rr.suspects_parked = r.u64();
  rr.members_dropped = r.u64();
  rr.pairs_dropped = r.u64();
  rr.replans_after_outage = r.u64();
  rr.detect_lag_sum = r.u64();
  rr.repair_lag_sum = r.u64();
  return rr;
}

void encode_planner_state(Writer& w, const MonitoringSystem::PlannerState& st) {
  encode_topology(w, st.topology);
  w.u32(static_cast<std::uint32_t>(st.adjustment_stamps.size()));
  for (const auto& [attrs, stamp] : st.adjustment_stamps) {
    w.u32(static_cast<std::uint32_t>(attrs.size()));
    for (AttrId a : attrs) w.u32(a);
    w.f64(stamp);
  }
  w.f64(st.init_time);
  w.str(st.constraint_signature);
}

bool decode_planner_state(Reader& r, MonitoringSystem::PlannerState& st) {
  if (!decode_topology(r, st.topology)) return false;
  const std::uint32_t nstamps = r.u32();
  for (std::uint32_t i = 0; i < nstamps && r.ok(); ++i) {
    std::vector<AttrId> attrs(r.u32());
    for (AttrId& a : attrs) a = r.u32();
    const double stamp = r.f64();
    st.adjustment_stamps.emplace(std::move(attrs), stamp);
  }
  st.init_time = r.f64();
  st.constraint_signature = r.str();
  return r.ok();
}

}  // namespace

void encode_topology(Writer& w, const Topology& topo) {
  w.u64(topo.total_pairs());
  w.u32(static_cast<std::uint32_t>(topo.entries().size()));
  for (const TreeEntry& e : topo.entries()) {
    w.u32(static_cast<std::uint32_t>(e.attrs.size()));
    for (AttrId a : e.attrs) w.u32(a);
    w.u64(e.offered_pairs);
    w.u64(e.collected_pairs);
    encode_tree(w, e.tree);
  }
}

bool decode_topology(Reader& r, Topology& out) {
  const std::size_t total_pairs = r.u64();
  const std::uint32_t nentries = r.u32();
  if (!r.ok()) return false;
  out.mutable_entries().clear();
  out.mutable_entries().reserve(nentries);
  for (std::uint32_t i = 0; i < nentries; ++i) {
    std::vector<AttrId> attrs(r.u32());
    for (AttrId& a : attrs) a = r.u32();
    const std::size_t offered = r.u64();
    const std::size_t collected = r.u64();
    if (!r.ok()) return false;
    if (!decode_tree(r, out.mutable_entries(), std::move(attrs), offered,
                     collected))
      return false;
  }
  out.set_total_pairs(total_pairs);
  return true;
}

void encode_system(Writer& w, federation::FederatedMonitoringSystem& sys,
                   double now) {
  w.u32(static_cast<std::uint32_t>(sys.system().num_nodes()));
  w.u32(static_cast<std::uint32_t>(sys.num_shards()));

  // Facade routing metadata.
  w.u32(sys.next_task_id());
  w.u32(static_cast<std::uint32_t>(sys.routes().size()));
  for (const auto& [id, route] : sys.routes()) {
    encode_task(w, route.user);
    w.u32(static_cast<std::uint32_t>(route.subtasks.size()));
    for (const auto& sub : route.subtasks) {
      w.u32(sub.shard);
      w.u32(sub.local_id);
      w.u64(sub.node_count);
    }
  }
  const auto& rs = sys.routing();
  w.u64(rs.tasks_submitted);
  w.u64(rs.single_shard_tasks);
  w.u64(rs.cross_shard_tasks);
  w.u64(rs.subtasks_routed);
  w.u64(rs.subtasks_active);
  w.u64(rs.routed_node_refs);

  // Shard cores.
  for (std::size_t k = 0; k < sys.num_shards(); ++k) {
    MonitoringSystem& shard = sys.shard(k);
    w.u32(shard.next_task_id());
    w.u32(static_cast<std::uint32_t>(shard.user_tasks().size()));
    for (const auto& [id, t] : shard.user_tasks()) encode_task(w, t);
    encode_planner_state(w, shard.planner_state(now));
    const auto counters = shard.adaptation_counters();
    w.u64(counters.adaptations);
    w.u64(counters.adaptation_messages);
    w.u64(counters.delta_applies);
    encode_repair(w, shard.repair_report());
  }
}

bool decode_system(Reader& r, federation::FederatedMonitoringSystem& sys) {
  const std::uint32_t nodes = r.u32();
  const std::uint32_t shards = r.u32();
  if (!r.ok()) return false;
  REMO_ASSERT(nodes == sys.system().num_nodes(),
              "snapshot was captured over ", nodes,
              " nodes but the restoring system has ", sys.system().num_nodes());
  REMO_ASSERT(shards == sys.num_shards(), "snapshot was captured over ",
              shards, " shards but the restoring federation has ",
              sys.num_shards());

  const TaskId next_id = r.u32();
  const std::uint32_t nroutes = r.u32();
  std::map<TaskId, federation::FederatedMonitoringSystem::Route> routes;
  for (std::uint32_t i = 0; i < nroutes && r.ok(); ++i) {
    federation::FederatedMonitoringSystem::Route route;
    route.user = decode_task(r);
    route.subtasks.resize(r.u32());
    for (auto& sub : route.subtasks) {
      sub.shard = r.u32();
      sub.local_id = r.u32();
      sub.node_count = r.u64();
    }
    routes.emplace(route.user.id, std::move(route));
  }
  federation::FederatedMonitoringSystem::RoutingStats rs;
  rs.tasks_submitted = r.u64();
  rs.single_shard_tasks = r.u64();
  rs.cross_shard_tasks = r.u64();
  rs.subtasks_routed = r.u64();
  rs.subtasks_active = r.u64();
  rs.routed_node_refs = r.u64();
  if (!r.ok()) return false;

  for (std::size_t k = 0; k < sys.num_shards(); ++k) {
    const TaskId shard_next = r.u32();
    const std::uint32_t ntasks = r.u32();
    std::map<TaskId, MonitoringTask> tasks;
    for (std::uint32_t i = 0; i < ntasks && r.ok(); ++i) {
      MonitoringTask t = decode_task(r);
      const TaskId id = t.id;
      tasks.emplace(id, std::move(t));
    }
    MonitoringSystem::PlannerState state;
    if (!decode_planner_state(r, state)) return false;
    MonitoringSystem::AdaptationCounters counters;
    counters.adaptations = r.u64();
    counters.adaptation_messages = r.u64();
    counters.delta_applies = r.u64();
    const RepairReport repair = decode_repair(r);
    if (!r.ok()) return false;

    MonitoringSystem& shard = sys.shard(k);
    shard.restore_tasks(std::move(tasks), shard_next);
    shard.restore_planner(std::move(state));
    shard.restore_counters(counters, repair);
  }
  sys.restore_routes(std::move(routes), next_id, rs);
  return r.ok();
}

std::vector<std::uint8_t> capture(federation::FederatedMonitoringSystem& sys,
                                  double now) {
  Writer payload;
  encode_system(payload, sys, now);
  Writer w;
  wire::begin_stream(w);
  wire::append_record(w, wire::RecordType::kSnapshot, payload.buffer());
  return w.take();
}

bool restore(const std::vector<std::uint8_t>& image,
             federation::FederatedMonitoringSystem& sys) {
  Reader r(image);
  if (!wire::read_stream_header(r)) return false;
  wire::Record rec;
  if (!wire::next_record(r, rec) || rec.type != wire::RecordType::kSnapshot)
    return false;
  Reader payload(rec.payload, rec.size);
  return decode_system(payload, sys);
}

}  // namespace remo::service
