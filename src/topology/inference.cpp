#include "topology/inference.hpp"

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "common/hash.hpp"
#include "obs/profile.hpp"

namespace miro::topo {
namespace {

using Pair = std::pair<AsNumber, AsNumber>;

Pair ordered(AsNumber a, AsNumber b) {
  return a < b ? Pair{a, b} : Pair{b, a};
}

/// Degree of each AS as observed in the paths (distinct path neighbors).
std::unordered_map<AsNumber, std::size_t> observed_degrees(
    const std::vector<AsPath>& paths) {
  std::map<Pair, bool> seen;
  for (const AsPath& path : paths)
    for (std::size_t i = 0; i + 1 < path.size(); ++i)
      if (path[i] != path[i + 1]) seen[ordered(path[i], path[i + 1])] = true;
  std::unordered_map<AsNumber, std::size_t> degree;
  for (const auto& [pair, _] : seen) {
    ++degree[pair.first];
    ++degree[pair.second];
  }
  return degree;
}

/// Index of the highest-observed-degree AS on the path (the "top provider").
std::size_t top_provider_index(
    const AsPath& path,
    const std::unordered_map<AsNumber, std::size_t>& degree) {
  std::size_t top = 0;
  std::size_t top_degree = 0;
  for (std::size_t i = 0; i < path.size(); ++i) {
    auto it = degree.find(path[i]);
    std::size_t d = it == degree.end() ? 0 : it->second;
    if (d > top_degree) {
      top_degree = d;
      top = i;
    }
  }
  return top;
}

AsGraph build_graph(
    const std::map<Pair, Relationship>& rel_of_second_to_first) {
  GraphBuilder builder;
  auto node_of = [&builder](AsNumber asn) {
    NodeId id = builder.find(asn);
    return id == kInvalidNode ? builder.add_as(asn) : id;
  };
  for (const auto& [pair, rel] : rel_of_second_to_first) {
    NodeId a = node_of(pair.first);
    NodeId b = node_of(pair.second);
    switch (rel) {
      case Relationship::Customer:
        builder.add_customer_provider(a, b);  // b is a's customer
        break;
      case Relationship::Provider:
        builder.add_customer_provider(b, a);
        break;
      case Relationship::Peer: builder.add_peer(a, b); break;
      case Relationship::Sibling: builder.add_sibling(a, b); break;
    }
  }
  return std::move(builder).build();
}

}  // namespace

AsGraph infer_gao(const std::vector<AsPath>& paths) {
  obs::ScopedSpan span(obs::profile(), "topology/infer_gao", "topology");
  // Minimum transit-evidence count in *both* directions to call a pair
  // siblings (Gao's L parameter).
  constexpr std::size_t kSiblingThreshold = 1;
  // Maximum degree ratio between two ASes for a peer classification (Gao's
  // R parameter). Gao used R = 60 on the measured Internet, whose degree
  // distribution spans four orders of magnitude; laptop-scale synthetic
  // graphs compress degrees, so the ratio here is tighter.
  constexpr double kPeerDegreeRatio = 2.0;
  const auto degree = observed_degrees(paths);

  // transit[u][v] = evidence that u provides transit for v, split into strong
  // (strictly below the top provider on a path) and weak (adjacent to it).
  struct Evidence {
    std::size_t strong_ab = 0, strong_ba = 0;  // a transits b / b transits a
    std::size_t weak_ab = 0, weak_ba = 0;
    bool top_adjacent = false;
  };
  std::map<Pair, Evidence> evidence;

  auto record = [&](AsNumber provider, AsNumber customer, bool strong,
                    bool top_adjacent) {
    if (provider == customer) return;
    Pair key = ordered(provider, customer);
    Evidence& e = evidence[key];
    const bool provider_is_first = key.first == provider;
    if (strong) {
      (provider_is_first ? e.strong_ab : e.strong_ba) += 1;
    } else {
      (provider_is_first ? e.weak_ab : e.weak_ba) += 1;
    }
    e.top_adjacent = e.top_adjacent || top_adjacent;
  };

  for (const AsPath& path : paths) {
    if (path.size() < 2) continue;
    const std::size_t top = top_provider_index(path, degree);
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      // Uphill toward the top: the next hop provides transit; downhill after
      // the top: the previous hop provides transit. Edges touching the top
      // are weak evidence — one of them may be the path's single peer link.
      if (i + 1 < top) {
        record(path[i + 1], path[i], /*strong=*/true, false);
      } else if (i + 1 == top) {
        record(path[i + 1], path[i], /*strong=*/false, true);
      } else if (i == top) {
        record(path[i], path[i + 1], /*strong=*/false, true);
      } else {
        record(path[i], path[i + 1], /*strong=*/true, false);
      }
    }
  }

  std::map<Pair, Relationship> result;  // relationship of .second w.r.t .first
  for (const auto& [pair, e] : evidence) {
    const auto deg_of = [&](AsNumber asn) {
      auto it = degree.find(asn);
      return it == degree.end() ? std::size_t{0} : it->second;
    };
    const double ratio =
        (static_cast<double>(deg_of(pair.first)) + 1.0) /
        (static_cast<double>(deg_of(pair.second)) + 1.0);
    const bool comparable =
        ratio <= kPeerDegreeRatio && ratio >= 1.0 / kPeerDegreeRatio;

    Relationship rel;
    if (e.strong_ab > kSiblingThreshold && e.strong_ba > kSiblingThreshold) {
      rel = Relationship::Sibling;
    } else if (e.strong_ab > 0 && e.strong_ba == 0) {
      rel = Relationship::Customer;  // second is customer of first
    } else if (e.strong_ba > 0 && e.strong_ab == 0) {
      rel = Relationship::Provider;
    } else if (e.strong_ab > 0 && e.strong_ba > 0) {
      rel = e.strong_ab >= e.strong_ba ? Relationship::Customer
                                       : Relationship::Provider;
    } else if (e.top_adjacent && comparable) {
      // Only weak, top-adjacent evidence with comparable degrees: peering.
      rel = Relationship::Peer;
    } else if (e.weak_ab != e.weak_ba) {
      rel = e.weak_ab > e.weak_ba ? Relationship::Customer
                                  : Relationship::Provider;
    } else {
      // Tie with incomparable degrees: larger degree is the provider.
      rel = deg_of(pair.first) >= deg_of(pair.second) ? Relationship::Customer
                                                      : Relationship::Provider;
    }
    result[pair] = rel;
  }
  return build_graph(result);
}

AsGraph infer_rank(const std::vector<AsPath>& paths) {
  obs::ScopedSpan span(obs::profile(), "topology/infer_rank", "topology");
  // Rank ratio under which two ASes are considered equivalent (peers).
  constexpr double kPeerRankRatio = 1.25;
  // Rank = how prominently an AS acts as transit: the number of distinct
  // ASes seen on paths that this AS carries as an *interior* hop. Stub ASes
  // are never interior and rank 0; the core ranks highest. This is the
  // multi-vantage "level" signal of Subramanian et al., collapsed to one
  // scalar.
  std::unordered_map<AsNumber, std::unordered_set<AsNumber>> transited;
  std::set<Pair> links;
  for (const AsPath& path : paths) {
    for (std::size_t i = 0; i + 1 < path.size(); ++i)
      if (path[i] != path[i + 1])
        links.insert(ordered(path[i], path[i + 1]));
    for (std::size_t i = 1; i + 1 < path.size(); ++i) {
      auto& seen = transited[path[i]];
      for (AsNumber asn : path)
        if (asn != path[i]) seen.insert(asn);
    }
  }
  auto rank = [&](AsNumber asn) {
    auto it = transited.find(asn);
    return it == transited.end() ? std::size_t{0} : it->second.size();
  };

  std::map<Pair, Relationship> result;
  for (const Pair& pair : links) {
    const double ra = static_cast<double>(rank(pair.first)) + 1.0;
    const double rb = static_cast<double>(rank(pair.second)) + 1.0;
    const double ratio = ra / rb;
    if (ratio <= kPeerRankRatio && ratio >= 1.0 / kPeerRankRatio) {
      result[pair] = Relationship::Peer;
    } else {
      // Higher rank provides transit for the lower one.
      result[pair] =
          ra > rb ? Relationship::Customer : Relationship::Provider;
    }
  }
  return build_graph(result);
}

InferenceAccuracy compare_inference(const AsGraph& truth,
                                    const AsGraph& inferred) {
  InferenceAccuracy acc;
  acc.edges_in_truth = truth.edge_count();
  acc.edges_in_inferred = inferred.edge_count();

  for (NodeId id = 0; id < truth.node_count(); ++id) {
    const AsNumber asn_a = truth.as_number(id);
    for (const Neighbor& n : truth.neighbors(id)) {
      if (n.node < id && n.rel != Relationship::Customer) continue;
      // Visit each undirected link once: from the provider side for P2C
      // links, from the lower id for symmetric links.
      if (n.rel == Relationship::Provider) continue;
      if ((n.rel == Relationship::Peer || n.rel == Relationship::Sibling) &&
          n.node < id)
        continue;
      const AsNumber asn_b = truth.as_number(n.node);
      const NodeId ia = inferred.find(asn_a);
      const NodeId ib = inferred.find(asn_b);
      if (ia == kInvalidNode || ib == kInvalidNode ||
          !inferred.has_edge(ia, ib)) {
        ++acc.edges_missing;
        continue;
      }
      if (inferred.relationship(ia, ib) == n.rel) {
        ++acc.classified_correct;
      } else {
        ++acc.classified_wrong;
      }
    }
  }

  // Spurious edges: inferred links absent from the truth.
  for (NodeId id = 0; id < inferred.node_count(); ++id) {
    const AsNumber asn_a = inferred.as_number(id);
    for (const Neighbor& n : inferred.neighbors(id)) {
      if (n.node < id) continue;  // each link once
      const AsNumber asn_b = inferred.as_number(n.node);
      const NodeId ta = truth.find(asn_a);
      const NodeId tb = truth.find(asn_b);
      if (ta == kInvalidNode || tb == kInvalidNode || !truth.has_edge(ta, tb))
        ++acc.edges_spurious;
    }
  }
  return acc;
}

}  // namespace miro::topo
