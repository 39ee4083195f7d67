#include "analysis/symbolic_routes.hpp"

#include <algorithm>
#include <bit>
#include <string>
#include <tuple>
#include <utility>

#include "analysis/convergence_lint.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/alternates.hpp"
#include "obs/profile.hpp"

namespace miro::analysis {

using bgp::RouteClass;
using topo::AsGraph;

// ------------------------------------------------------ SymbolicRouteMap

std::vector<NodeId> SymbolicRouteMap::path_of(NodeId node) const {
  std::vector<NodeId> path;
  if (!entries_[node].reachable) return path;
  NodeId current = node;
  path.push_back(current);
  while (current != destination_) {
    current = entries_[current].next_hop;
    path.push_back(current);
    require(path.size() <= entries_.size(), "SymbolicRouteMap: next-hop loop");
  }
  return path;
}

std::size_t SymbolicRouteMap::reachable_count() const {
  std::size_t count = 0;
  for (const Entry& e : entries_)
    if (e.reachable) ++count;
  return count;
}

bool SymbolicRouteMap::feasible(NodeId node) const {
  const Entry& e = entries_[node];
  for (const std::uint32_t length : e.feasible_length)
    if (length != kInfeasibleLength) return true;
  return false;
}

// --------------------------------------------------- SymbolicRouteEngine

SymbolicRouteEngine::SymbolicRouteEngine(const AsGraph& graph,
                                         SymbolicOptions options)
    : graph_(&graph), options_(options) {
  for (int rel = 0; rel < 4; ++rel) {
    // rel is what the exporting neighbor is to the receiver; the neighbor's
    // export rule sees the receiver as the reverse.
    const auto neighbor_rel = static_cast<topo::Relationship>(rel);
    for (int r = 0; r < 4; ++r) {
      const auto cls = static_cast<RouteClass>(r);
      offer_[rel][r] =
          export_allows(cls, topo::reverse(neighbor_rel))
              ? static_cast<std::uint8_t>(
                    bgp::rank(bgp::classify(neighbor_rel, cls)))
              : kNoOffer;
    }
  }
  const std::size_t n = graph.node_count();
  asns_.reserve(n);
  for (NodeId v = 0; v < n; ++v) asns_.push_back(graph.as_number(v));
  // Every neighbor list is sorted, so visiting the receivers u in
  // ascending order meets each v's half-edges in v's list order: one
  // cursor per node places every wake bit without a search.
  wake_bit_.resize(graph.half_edge_count());
  std::vector<std::uint32_t> cursor(n);
  for (NodeId v = 0; v < n; ++v) cursor[v] = graph.first_half_edge(v);
  for (NodeId u = 0; u < n; ++u) {
    std::uint8_t index = 0;
    for (const topo::Neighbor& nb : graph.neighbors(u)) {
      wake_bit_[cursor[nb.node]++] = index;
      if (index < 63) ++index;
    }
  }
}

bool SymbolicRouteEngine::export_allows(RouteClass cls,
                                        topo::Relationship to_rel) const {
  if (options_.inject_export_bug && cls == RouteClass::Peer)
    return true;  // the classic route leak: peer routes go everywhere
  return bgp::conventional_export_allows(cls, to_rel);
}

Report SymbolicRouteEngine::preconditions(std::string_view label) const {
  Report report;
  if (auto cycle = find_provider_cycle(*graph_)) {
    report
        .add(Severity::Error, "verify.precondition.provider-cycle",
             "customer-provider hierarchy is cyclic; the stable state is not "
             "guaranteed to exist, so the symbolic fixpoint is meaningless")
        .at(label)
        .fix("break the provider cycle (Guideline A precondition) before "
             "asking layer-3 queries")
        .note("cycle: " + path_str(*graph_, *cycle));
  }
  return report;
}

std::string SymbolicRouteEngine::unstable_cause() const {
  if (find_provider_cycle(*graph_))
    return "the provider hierarchy is cyclic";
  if (options_.inject_export_bug)
    return "the export relation let routes keep growing (the injected "
           "export bug leaks peer routes to peers and providers)";
  if (options_.max_sweeps != 0)
    return "routes were still improving at max_sweeps";
  return "the export relation let routes keep growing";
}

SymbolicRouteMap SymbolicRouteEngine::fixpoint(NodeId destination,
                                               NodeId avoid) const {
  obs::ScopedSpan span(obs::profile(), "analysis/symbolic_fixpoint",
                       "analysis");
  using Entry = SymbolicRouteMap::Entry;
  const AsGraph& graph = *graph_;
  const std::size_t n = graph.node_count();
  require(destination < n, "SymbolicRouteEngine: destination out of range");
  SymbolicRouteMap map;
  map.destination_ = destination;
  map.entries_.assign(n, {});
  std::vector<Entry>& entries = map.entries_;

  Entry& origin = entries[destination];
  origin.reachable = true;
  origin.next_hop = destination;
  origin.length = 0;
  origin.cls = RouteClass::Self;
  origin.feasible_length[bgp::rank(RouteClass::Self)] = 0;

  // One node's transfer function over the neighbors in `heard` (bit i for
  // neighbor i, bit 63 for every neighbor from index 63 on): the ones whose
  // offer to v changed since v's last evaluation. True when v's exact
  // triple or any feasible length moved.
  auto evaluate = [&](NodeId v, std::uint64_t heard) {
    Entry& entry = entries[v];
    const topo::NeighborRange neighbors = graph.neighbors(v);
    bool changed = false;
    bool best_reachable = false;
    std::uint8_t best_rank = bgp::rank(RouteClass::Provider);
    std::uint32_t best_length = 0;
    topo::AsNumber best_asn = 0;
    NodeId best_hop = topo::kInvalidNode;
    auto offer_exact = [&](const topo::Neighbor& nb,
                           const std::uint8_t* offer) {
      const Entry& theirs = entries[nb.node];
      const std::uint8_t cls_rank =
          theirs.reachable ? offer[bgp::rank(theirs.cls)] : kNoOffer;
      if (cls_rank == kNoOffer) return;
      const std::uint32_t length = theirs.length + 1;
      const topo::AsNumber asn = asns_[nb.node];
      if (!best_reachable || std::tie(cls_rank, length, asn) <
                                 std::tie(best_rank, best_length, best_asn)) {
        best_reachable = true;
        best_rank = cls_rank;
        best_length = length;
        best_asn = asn;
        best_hop = nb.node;
      }
    };
    const NodeId hop = entry.next_hop;
    bool hop_heard = false;
    auto read = [&](std::size_t i) {
      const topo::Neighbor nb = neighbors[i];
      if (nb.node == avoid) return;
      const std::uint8_t* offer = offer_[static_cast<int>(nb.rel)];
      hop_heard |= nb.node == hop;
      offer_exact(nb, offer);
      // Feasibility layer: any class the neighbor could ever hold and
      // export reaches v re-classified by this link. This layer is a
      // genuine monotone may-analysis (lengths only shrink), so relaxing
      // from the neighbors whose offer changed is exact.
      const Entry& theirs = entries[nb.node];
      for (int r = 0; r < 4; ++r) {
        const std::uint32_t length = theirs.feasible_length[r];
        if (length == kInfeasibleLength || offer[r] == kNoOffer) continue;
        std::uint32_t& slot = entry.feasible_length[offer[r]];
        if (length + 1 < slot) {
          slot = length + 1;
          changed = true;
        }
      }
    };
    for (; heard != 0; heard &= heard - 1) {
      const auto i = static_cast<std::size_t>(std::countr_zero(heard));
      if (i < 63) {
        read(i);
      } else {
        for (std::size_t j = 63; j < neighbors.size(); ++j) read(j);
      }
    }
    // Exact layer. At v's last evaluation its triple beat every offer, and
    // the neighbors not heard from still make the same offers, so the best
    // heard offer only has to beat v's triple. If v's own next hop was
    // heard, its offer may have got worse (an offer is not monotone: a
    // neighbor's class can improve while its path grows), and when no heard
    // offer is at least as good as the stale triple the best one is
    // recomputed fresh from every neighbor. No two offers tie: next hops
    // have distinct AS numbers.
    if (entry.reachable &&
        !(best_reachable &&
          std::tie(best_rank, best_length, best_asn) <=
              std::make_tuple(static_cast<std::uint8_t>(bgp::rank(entry.cls)),
                              entry.length, asns_[hop]))) {
      if (!hop_heard) return changed;  // the current triple still wins
      best_reachable = false;
      for (const topo::Neighbor& nb : neighbors)
        if (nb.node != avoid) offer_exact(nb, offer_[static_cast<int>(nb.rel)]);
    }
    const auto best_cls = static_cast<RouteClass>(best_rank);
    if (best_reachable != entry.reachable ||
        (best_reachable &&
         (best_cls != entry.cls || best_length != entry.length ||
          best_hop != entry.next_hop))) {
      entry.reachable = best_reachable;
      entry.cls = best_cls;
      entry.length = best_length;
      entry.next_hop = best_hop;
      changed = true;
    }
    return changed;
  };

  // Which neighbors hear a move from `before` to `after`: bit rel is set
  // when the offer to a neighbor that is `rel` to the mover changed — its
  // class rank, its length, or a feasible length that link lets through.
  // A move of the next hop alone changes no offer.
  auto offers_changed = [&](const Entry& before, const Entry& after) {
    unsigned rels = 0;
    for (int rel = 0; rel < 4; ++rel) {
      const std::uint8_t* offer = offer_[static_cast<int>(
          topo::reverse(static_cast<topo::Relationship>(rel)))];
      const std::uint8_t was =
          before.reachable ? offer[bgp::rank(before.cls)] : kNoOffer;
      const std::uint8_t now =
          after.reachable ? offer[bgp::rank(after.cls)] : kNoOffer;
      bool moved =
          was != now || (now != kNoOffer && before.length != after.length);
      for (int r = 0; r < 4 && !moved; ++r)
        moved = offer[r] != kNoOffer &&
                before.feasible_length[r] != after.feasible_length[r];
      if (moved) rels |= 1u << rel;
    }
    return rels;
  };

  // Gauss-Seidel sweeps in node order until nothing moves, over a dirty
  // set: one bit per node, set when a neighbor's offer to it changed since
  // the node's last evaluation, with the neighbor's wake bit in heard[]. A
  // node with no such neighbor would recompute exactly its current state,
  // so skipping it changes nothing. A change at v dirties a higher neighbor
  // for this sweep (a full sweep reaches it after v) and a lower one for
  // the next (a full sweep passed it before v moved), so each sweep sees
  // the states a full sweep sees. Before the first sweep only the
  // destination's neighbors can move, hearing from the destination.
  const std::size_t words = (n + 63) / 64;
  std::vector<std::uint64_t> dirty(words, 0);
  std::vector<std::uint64_t> heard(n, 0);
  auto bit = [](std::uint64_t i) { return std::uint64_t{1} << (i & 63); };
  const topo::NeighborRange origin_neighbors = graph.neighbors(destination);
  const std::uint32_t origin_first = graph.first_half_edge(destination);
  for (std::size_t i = 0; i < origin_neighbors.size(); ++i) {
    const NodeId u = origin_neighbors[i].node;
    if (u == avoid) continue;
    dirty[u >> 6] |= bit(u);
    heard[u] |= bit(wake_bit_[origin_first + i]);
  }

  // Termination rests on Guideline A, not on monotonicity. Feasible lengths
  // only shrink, but transient exact triples move both ways in the
  // preference order (a next hop's offer can get worse, hence the rescan
  // above). Guideline A requires an acyclic provider hierarchy, under which
  // the sweeps settle on the unique stable state; the bound below is a
  // guard that only trips on inputs violating that precondition. A full
  // iteration starts sweep s + 1 after every sweep s that moved something
  // and refuses once s reaches the bound, so this loop refuses when a sweep
  // at or past it moves.
  const std::size_t bound =
      options_.max_sweeps != 0 ? options_.max_sweeps : n + 2;
  std::size_t sweep = 0;
  std::size_t last_moved = 0;
  std::size_t evaluations = 0;
  while (std::any_of(dirty.begin(), dirty.end(),
                     [](std::uint64_t word) { return word != 0; })) {
    ++sweep;
    bool moved = false;
    for (std::size_t w = 0; w < words; ++w) {
      std::uint64_t bits = std::exchange(dirty[w], 0);
      while (bits != 0) {
        const auto v = static_cast<NodeId>(w * 64 + std::countr_zero(bits));
        bits &= bits - 1;
        ++evaluations;
        const Entry before = entries[v];
        if (!evaluate(v, std::exchange(heard[v], 0))) continue;
        moved = true;
        const unsigned rels = offers_changed(before, entries[v]);
        if (rels == 0) continue;
        const std::uint32_t first = graph.first_half_edge(v);
        const topo::NeighborRange neighbors = graph.neighbors(v);
        for (std::size_t i = 0; i < neighbors.size(); ++i) {
          const topo::Neighbor nb = neighbors[i];
          if ((rels >> static_cast<int>(nb.rel) & 1u) == 0 ||
              nb.node == destination || nb.node == avoid)
            continue;
          heard[nb.node] |= bit(wake_bit_[first + i]);
          if (nb.node > v && nb.node >> 6 == w)
            bits |= bit(nb.node);  // later in this word: this sweep
          else
            dirty[nb.node >> 6] |= bit(nb.node);  // later word, or next sweep
        }
      }
    }
    if (moved) {
      last_moved = sweep;
      if (sweep >= bound)
        throw Error("SymbolicRouteEngine: fixpoint did not stabilize (sweep "
                    "bound " + std::to_string(bound) + "): " +
                    unstable_cause());
    }
  }
  map.sweeps_ = last_moved + 1;
  map.evaluations_ = evaluations;
  return map;
}

SymbolicRouteMap SymbolicRouteEngine::solve(NodeId destination) const {
  return fixpoint(destination, topo::kInvalidNode);
}

SymbolicRouteMap SymbolicRouteEngine::solve_avoiding(NodeId destination,
                                                     NodeId avoid) const {
  require(avoid < graph_->node_count(),
          "SymbolicRouteEngine::solve_avoiding: avoided AS out of range");
  require(avoid != destination,
          "SymbolicRouteEngine::solve_avoiding: cannot avoid the destination");
  return fixpoint(destination, avoid);
}

std::vector<bgp::Route> SymbolicRouteEngine::candidates_at(
    const SymbolicRouteMap& map, NodeId node) const {
  const AsGraph& graph = *graph_;
  std::vector<bgp::Route> candidates;
  if (node == map.destination()) return candidates;
  for (const topo::Neighbor& n : graph.neighbors(node)) {
    if (!map.reachable(n.node)) continue;
    const RouteClass neighbor_cls = map.route_class(n.node);
    if (!export_allows(neighbor_cls, topo::reverse(n.rel))) continue;
    std::vector<NodeId> neighbor_path = map.path_of(n.node);
    if (std::find(neighbor_path.begin(), neighbor_path.end(), node) !=
        neighbor_path.end())
      continue;  // implicit import policy: drop looping paths
    bgp::Route route;
    route.path.reserve(neighbor_path.size() + 1);
    route.path.push_back(node);
    route.path.insert(route.path.end(), neighbor_path.begin(),
                      neighbor_path.end());
    route.route_class = bgp::classify(n.rel, neighbor_cls);
    candidates.push_back(std::move(route));
  }
  std::sort(candidates.begin(), candidates.end(),
            [&graph](const bgp::Route& a, const bgp::Route& b) {
              return bgp::prefer(a, b, graph);
            });
  return candidates;
}

SymbolicRouteEngine::AvoidPrediction SymbolicRouteEngine::predict_avoid(
    const SymbolicRouteMap& map, NodeId source, NodeId avoid,
    core::ExportPolicy policy) const {
  AvoidPrediction result;
  const AsGraph& graph = *graph_;
  const NodeId destination = map.destination();
  require(source != avoid && destination != avoid,
          "predict_avoid: endpoints cannot be the avoided AS");
  if (!map.reachable(source)) return result;
  const std::vector<NodeId> default_path = map.path_of(source);
  const auto avoid_it =
      std::find(default_path.begin(), default_path.end(), avoid);
  require(avoid_it != default_path.end(),
          "predict_avoid: the avoided AS must lie on the source's default "
          "path");
  const auto avoid_index =
      static_cast<std::size_t>(avoid_it - default_path.begin());

  // Plain BGP first: any candidate route at the source that misses the AS.
  for (const bgp::Route& candidate : candidates_at(map, source)) {
    if (!candidate.traverses(avoid)) {
      result.success = true;
      result.bgp_success = true;
      result.witness = candidate.path;
      return result;
    }
  }

  // Negotiate with the ASes on the default path between the source and the
  // offending AS, closest first — the Section 5.3 procedure evaluated over
  // the symbolic state.
  for (std::size_t i = 1; i < avoid_index; ++i) {
    const NodeId responder = default_path[i];
    ++result.ases_contacted;
    // The export relationship is evaluated on the link the offered route
    // will actually be used over: previous hop into the responder.
    const topo::Relationship requester_rel =
        graph.relationship(responder, default_path[i - 1]);
    std::optional<RouteClass> best_class;
    if (map.reachable(responder)) best_class = map.route_class(responder);
    const std::vector<bgp::Route> offers = core::filter_exports(
        policy, candidates_at(map, responder), best_class, requester_rel);
    result.paths_received += offers.size();
    const std::vector<NodeId> prefix(default_path.begin(),
                                     default_path.begin() + i + 1);
    for (const bgp::Route& offered : offers) {
      if (offered.traverses(avoid)) continue;
      // Splice check: no node of the offered suffix beyond the responder
      // may re-appear in the prefix.
      bool loops = false;
      for (std::size_t j = 1; j < offered.path.size() && !loops; ++j)
        loops = std::find(prefix.begin(), prefix.end(), offered.path[j]) !=
                prefix.end();
      if (loops) continue;
      result.success = true;
      result.witness = prefix;
      result.witness.insert(result.witness.end(), offered.path.begin() + 1,
                            offered.path.end());
      return result;
    }
  }
  return result;
}

// --------------------------------------------------- export safety / leaks

namespace {

/// Shared hop-by-hop validator over either plane: `state` needs the
/// RoutingTree-shaped accessors (destination/reachable/route_class/
/// next_hop/path_length/path_of).
template <typename State>
Report check_export_safety_impl(const AsGraph& graph, const State& state,
                                std::string_view label, const char* plane) {
  Report report;
  const NodeId destination = state.destination();
  for (NodeId v = 0; v < graph.node_count(); ++v) {
    if (!state.reachable(v)) continue;
    if (v == destination) {
      if (state.route_class(v) != RouteClass::Self ||
          state.path_length(v) != 0 || state.next_hop(v) != v) {
        report
            .add(Severity::Error, "verify.leak.origin",
                 std::string(plane) + " state corrupts the origin entry of " +
                     as_str(graph, v))
            .at(label);
      }
      continue;
    }
    const NodeId hop = state.next_hop(v);
    if (hop >= graph.node_count() || hop == v || !graph.has_edge(v, hop) ||
        !state.reachable(hop)) {
      report
          .add(Severity::Error, "verify.leak.next-hop",
               as_str(graph, v) + " has an invalid next hop in the " + plane +
                   " state")
          .at(label);
      continue;
    }
    // hop_rel: what the next hop is to v — the link the route arrived on.
    const topo::Relationship hop_rel = graph.relationship(v, hop);
    const RouteClass hop_cls = state.route_class(hop);
    if (!bgp::conventional_export_allows(hop_cls, topo::reverse(hop_rel))) {
      report
          .add(Severity::Error, "verify.leak.export-violation",
               as_str(graph, hop) + " exports a " +
                   bgp::to_string(hop_cls) + " route to " + as_str(graph, v) +
                   ", which the conventional policy forbids (route leak)")
          .at(label)
          .note("leaked path: " + path_str(graph, state.path_of(v)));
    }
    const RouteClass expected = bgp::classify(hop_rel, hop_cls);
    if (state.route_class(v) != expected) {
      report
          .add(Severity::Error, "verify.leak.class",
               as_str(graph, v) + " classifies its " + plane + " route as " +
                   bgp::to_string(state.route_class(v)) + "; the " +
                   bgp::to_string(hop_cls) + " route via " +
                   as_str(graph, hop) + " must classify as " +
                   bgp::to_string(expected))
          .at(label);
    }
    if (state.path_length(v) != state.path_length(hop) + 1) {
      report
          .add(Severity::Error, "verify.leak.length",
               as_str(graph, v) + " advertises path length " +
                   std::to_string(state.path_length(v)) + " but its next hop " +
                   as_str(graph, hop) + " holds length " +
                   std::to_string(state.path_length(hop)))
          .at(label);
    }
  }
  report.sort();
  return report;
}

}  // namespace

Report check_export_safety(const AsGraph& graph, const SymbolicRouteMap& map,
                           std::string_view label) {
  return check_export_safety_impl(graph, map, label, "symbolic");
}

Report check_export_safety(const AsGraph& graph, const bgp::RoutingTree& tree,
                           std::string_view label) {
  return check_export_safety_impl(graph, tree, label, "simulated");
}

// ------------------------------------------------------------ differential

DifferentialOutcome differential_check(const AsGraph& graph,
                                       const DifferentialOptions& options,
                                       std::string_view label) {
  obs::ScopedSpan span(obs::profile(), "analysis/differential", "analysis");
  DifferentialOutcome out;
  SymbolicRouteEngine engine(graph, options.engine);

  Report pre = engine.preconditions(label);
  if (pre.error_count() != 0) {
    out.report.merge(pre);
    return out;
  }

  const bgp::StableRouteSolver solver(graph);
  const core::AlternatesEngine alternates(solver);
  const std::size_t n = graph.node_count();
  // Witness diagnostics per check id before summarizing (keeps reports
  // readable when a plane is badly broken).
  constexpr std::size_t kMaxWitnesses = 8;
  std::size_t suppressed = 0;
  auto witness = [&](std::string_view check, std::string message) {
    if (out.report.size() >= kMaxWitnesses) {
      ++suppressed;
      return;
    }
    out.report.add(Severity::Error, check, std::move(message)).at(label);
  };

  // Entry-by-entry comparison of one (simulated, symbolic) tree pair.
  auto compare_trees = [&](const bgp::RoutingTree& tree,
                           const SymbolicRouteMap& map,
                           std::string_view check, const std::string& what) {
    for (NodeId v = 0; v < n; ++v) {
      ++out.entries;
      std::string diff;
      if (tree.reachable(v) != map.reachable(v)) {
        diff = std::string("reachable ") +
               (tree.reachable(v) ? "true" : "false") + " vs " +
               (map.reachable(v) ? "true" : "false");
      } else if (tree.reachable(v)) {
        if (tree.route_class(v) != map.route_class(v))
          diff = std::string("class ") + bgp::to_string(tree.route_class(v)) +
                 " vs " + bgp::to_string(map.route_class(v));
        else if (tree.path_length(v) != map.path_length(v))
          diff = "length " + std::to_string(tree.path_length(v)) + " vs " +
                 std::to_string(map.path_length(v));
        else if (tree.next_hop(v) != map.next_hop(v))
          diff = "next hop " + as_str(graph, tree.next_hop(v)) + " vs " +
                 as_str(graph, map.next_hop(v));
      }
      if (!diff.empty()) {
        ++out.entry_mismatches;
        witness(check, what + ": simulated and symbolic states of " +
                           as_str(graph, v) + " diverge (" + diff + ")");
      }
    }
  };

  Rng rng(options.seed);
  std::vector<NodeId> destinations;
  for (const std::size_t index :
       rng.sample_indices(n, std::min(options.destination_samples, n)))
    destinations.push_back(static_cast<NodeId>(index));
  std::sort(destinations.begin(), destinations.end());

  for (const NodeId destination : destinations) {
    ++out.destinations;
    const bgp::RoutingTree tree = solver.solve(destination);
    const SymbolicRouteMap map = engine.solve(destination);
    const std::string what = "destination " + as_str(graph, destination);
    compare_trees(tree, map, "verify.diff.entry", what);

    // Feasibility layer vs ground truth: a node has an admissible route in
    // the abstraction iff the stable state reaches it.
    for (NodeId v = 0; v < n; ++v) {
      if (map.feasible(v) != tree.reachable(v)) {
        ++out.entry_mismatches;
        witness("verify.diff.feasible",
                what + ": feasibility abstraction disagrees with stable "
                       "reachability at " +
                    as_str(graph, v));
      }
    }

    // Both planes must be leak-free against the conventional export rule.
    for (const Report& safety :
         {check_export_safety(graph, tree, label),
          check_export_safety(graph, map, label)}) {
      for (const Diagnostic& d : safety.diagnostics())
        if (d.severity == Severity::Error)
          witness(d.check, what + ": " + d.message);
      if (safety.error_count() != 0) ++out.entry_mismatches;
    }

    // Avoid-AS verdicts: every intermediate AS of every sampled source's
    // default path, under all three export policies, plus one poisoned
    // fixpoint cross-check per destination.
    const std::size_t want = std::min(options.sources_per_destination, n - 1);
    const std::size_t draw = std::min(n, want * 2 + 8);
    std::size_t taken = 0;
    bool poisoned_checked = false;
    for (const std::size_t index : rng.sample_indices(n, draw)) {
      if (taken >= want) break;
      const auto source = static_cast<NodeId>(index);
      if (source == destination || !tree.reachable(source)) continue;
      ++taken;
      const std::vector<NodeId> path = tree.path_of(source);
      if (map.path_of(source) != path) continue;  // already convicted above
      for (std::size_t i = 1; i + 1 < path.size(); ++i) {
        const NodeId avoid = path[i];
        if (!poisoned_checked) {
          poisoned_checked = true;
          compare_trees(solver.solve_avoiding(destination, avoid),
                        engine.solve_avoiding(destination, avoid),
                        "verify.diff.avoid-tree",
                        what + " avoiding " + as_str(graph, avoid));
        }
        for (const core::ExportPolicy policy : core::kAllPolicies) {
          ++out.tuples;
          const core::AlternatesEngine::AvoidResult simulated =
              alternates.avoid_as(tree, source, avoid, policy);
          const SymbolicRouteEngine::AvoidPrediction predicted =
              engine.predict_avoid(map, source, avoid, policy);
          std::string diff;
          if (simulated.success != predicted.success)
            diff = "success";
          else if (simulated.bgp_success != predicted.bgp_success)
            diff = "bgp_success";
          else if (simulated.ases_contacted != predicted.ases_contacted)
            diff = "ases_contacted";
          else if (simulated.paths_received != predicted.paths_received)
            diff = "paths_received";
          if (!diff.empty()) {
            ++out.avoid_mismatches;
            witness("verify.diff.avoid",
                    "avoid(" + as_str(graph, source) + " -> " +
                        as_str(graph, destination) + " around " +
                        as_str(graph, avoid) + ", " + to_string(policy) +
                        "): planes disagree on " + diff);
          }
        }
      }
    }
  }

  Diagnostic& summary = out.report.add(
      Severity::Note, "verify.diff.summary",
      std::to_string(out.destinations) + " destinations, " +
          std::to_string(out.entries) + " tree entries, " +
          std::to_string(out.tuples) + " avoid tuples compared: " +
          std::to_string(out.entry_mismatches) + " entry and " +
          std::to_string(out.avoid_mismatches) + " avoid divergences");
  summary.at(label);
  if (suppressed != 0)
    summary.note(std::to_string(suppressed) +
                 " further divergence witnesses suppressed");
  return out;
}

}  // namespace miro::analysis
