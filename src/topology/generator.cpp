#include "topology/generator.hpp"

#include <algorithm>
#include <cmath>

#include "obs/memstats.hpp"
#include "obs/profile.hpp"

namespace miro::topo {
namespace {

/// Picks a provider among `pool` (node ids) with probability proportional to
/// (degree + 1)^bias, skipping nodes already linked to `customer`.
NodeId pick_provider(const GraphBuilder& graph,
                     const std::vector<NodeId>& pool,
                     NodeId customer, double bias, Rng& rng) {
  // Weighted sampling by repeated tournament: cheap and heavy-tailed enough.
  // Draw a few candidates uniformly, keep the one with the largest
  // degree-derived score; this approximates preferential attachment while
  // staying O(1) per draw (has_edge scans the shorter adjacency list, here
  // the new customer's handful of links, so high-degree tier-1 candidates
  // cost the same as leaves).
  constexpr int kTournament = 6;
  NodeId best = kInvalidNode;
  double best_score = -1;
  for (int i = 0; i < kTournament; ++i) {
    NodeId candidate = pool[rng.next_below(pool.size())];
    if (candidate == customer || graph.has_edge(candidate, customer)) continue;
    double score =
        std::pow(static_cast<double>(graph.degree(candidate)) + 1.0, bias) *
        rng.uniform();
    if (score > best_score) {
      best_score = score;
      best = candidate;
    }
  }
  return best;
}

/// Homes `node` to `want` distinct providers from `pool`. A tournament
/// round can come up empty (every draw already linked or the customer
/// itself), which used to silently under-home the node — the realized
/// multi-homed fraction then undershot multi_home_probability. Retry the
/// tournament a few times per slot, then fall back to a deterministic scan
/// for the first eligible pool member, so the intended provider count is
/// realized whenever the pool has enough unlinked candidates. Returns the
/// number of links actually added (< want only when the pool is exhausted).
std::size_t attach_providers(GraphBuilder& graph,
                             const std::vector<NodeId>& pool,
                             NodeId node, std::size_t want, double bias,
                             Rng& rng) {
  constexpr int kRetries = 12;
  std::size_t attached = 0;
  for (std::size_t p = 0; p < want; ++p) {
    NodeId provider = kInvalidNode;
    for (int attempt = 0; attempt < kRetries && provider == kInvalidNode;
         ++attempt) {
      provider = pick_provider(graph, pool, node, bias, rng);
    }
    if (provider == kInvalidNode) {
      for (NodeId candidate : pool) {
        if (candidate != node && !graph.has_edge(candidate, node)) {
          provider = candidate;
          break;
        }
      }
    }
    if (provider == kInvalidNode) break;  // pool exhausted for this node
    graph.add_customer_provider(provider, node);
    ++attached;
  }
  return attached;
}

std::size_t provider_count_for_stub(const GeneratorParams& params, Rng& rng) {
  if (!rng.chance(params.multi_home_probability)) return 1;
  // Multi-homed: mostly dual-homed, occasionally more.
  double u = rng.uniform();
  if (u < 0.72) return 2;
  if (u < 0.93) return 3;
  return 4;
}

}  // namespace

AsGraph generate(const GeneratorParams& params) {
  obs::ScopedSpan span(obs::profile(), "topology/generate", "topology");
  require(params.tier1_count >= 2, "generate: need at least two tier-1 ASes");
  require(params.node_count > params.tier1_count,
          "generate: node_count must exceed tier1_count");
  Rng rng(params.seed);
  GraphBuilder builder;

  // AS numbers are 1-based and sequential: deterministic and easy to read in
  // examples ("AS 17"). Real ASNs are arbitrary labels; nothing downstream
  // depends on their values.
  for (std::size_t i = 0; i < params.node_count; ++i)
    builder.add_as(static_cast<AsNumber>(i + 1));

  // --- Tier-1 clique: the small core of very-high-degree peers. ---
  std::vector<NodeId> tier1;
  for (std::size_t i = 0; i < params.tier1_count; ++i)
    tier1.push_back(static_cast<NodeId>(i));
  for (std::size_t i = 0; i < tier1.size(); ++i)
    for (std::size_t j = i + 1; j < tier1.size(); ++j)
      builder.add_peer(tier1[i], tier1[j]);

  const std::size_t rest = params.node_count - params.tier1_count;
  const std::size_t transit_count = static_cast<std::size_t>(
      static_cast<double>(rest) * params.transit_fraction);

  // --- Transit tier: preferentially attached to earlier transit/tier-1. ---
  std::vector<NodeId> transit_pool = tier1;  // valid providers so far
  std::vector<NodeId> transit_nodes;
  for (std::size_t i = 0; i < transit_count; ++i) {
    NodeId node = static_cast<NodeId>(params.tier1_count + i);
    std::size_t providers = 1 + (rng.chance(0.55) ? 1 : 0) +
                            (rng.chance(0.18) ? 1 : 0);
    // The pool is never empty (it starts as the tier-1 clique), so every
    // transit AS attaches to at least one provider.
    attach_providers(builder, transit_pool, node, providers,
                     params.attachment_bias, rng);
    transit_pool.push_back(node);
    transit_nodes.push_back(node);
  }

  // --- Stubs: the remaining nodes, each homed to 1..4 transit providers. ---
  std::vector<NodeId> stubs;
  for (NodeId node = static_cast<NodeId>(params.tier1_count + transit_count);
       node < params.node_count; ++node) {
    std::size_t providers = provider_count_for_stub(params, rng);
    attach_providers(builder, transit_pool, node, providers,
                     params.attachment_bias, rng);
    stubs.push_back(node);
  }

  // --- Extra peer links, mostly between transit ASes of similar standing. ---
  const std::size_t base_edges = builder.edge_count();
  const auto peer_target = static_cast<std::size_t>(
      static_cast<double>(base_edges) * params.peer_link_fraction);
  std::size_t added_peers = 0;
  std::size_t attempts = 0;
  while (added_peers < peer_target && attempts < peer_target * 30 &&
         transit_nodes.size() >= 2) {
    ++attempts;
    NodeId a = transit_nodes[rng.next_below(transit_nodes.size())];
    // Peering partners have comparable degree; bias the second draw the same
    // way and accept only if degrees are within ~8x of each other.
    NodeId b = transit_nodes[rng.next_below(transit_nodes.size())];
    if (a == b || builder.has_edge(a, b)) continue;
    double ratio = static_cast<double>(builder.degree(a) + 1) /
                   static_cast<double>(builder.degree(b) + 1);
    if (ratio > 8.0 || ratio < 1.0 / 8.0) continue;
    builder.add_peer(a, b);
    ++added_peers;
  }

  // --- Sibling links: small same-institution clusters in the transit tier. ---
  const auto sibling_target = static_cast<std::size_t>(
      static_cast<double>(base_edges) * params.sibling_link_fraction);
  std::size_t added_siblings = 0;
  attempts = 0;
  while (added_siblings < sibling_target && attempts < sibling_target * 30 &&
         transit_nodes.size() >= 2) {
    ++attempts;
    NodeId a = transit_nodes[rng.next_below(transit_nodes.size())];
    NodeId b = transit_nodes[rng.next_below(transit_nodes.size())];
    if (a == b || builder.has_edge(a, b)) continue;
    builder.add_sibling(a, b);
    ++added_siblings;
  }

  AsGraph graph = std::move(builder).build();
  if (obs::MemoryRegistry* mem = obs::memory())
    mem->account("topology/graph").set_current(graph.memory_bytes());
  return graph;
}

GeneratorParams profile(std::string_view name, double scale) {
  // Checked before the cast below: converting an infinite or out-of-range
  // double to an integer is undefined behaviour.
  require(std::isfinite(scale) && scale > 0,
          "profile: scale must be finite and positive");
  GeneratorParams p;
  auto scaled = [&](std::size_t n) {
    const double nodes = static_cast<double>(n) * scale;
    require(nodes < static_cast<double>(kInvalidNode),
            "profile: scale too large for 32-bit node ids");
    return std::max<std::size_t>(64, static_cast<std::size_t>(nodes));
  };
  if (name == "gao2000") {
    p.node_count = scaled(2200);
    p.tier1_count = 8;
    p.transit_fraction = 0.18;
    p.peer_link_fraction = 0.062;
    p.sibling_link_fraction = 0.013;
    p.seed = 2000;
  } else if (name == "gao2003") {
    p.node_count = scaled(4000);
    p.tier1_count = 10;
    p.transit_fraction = 0.17;
    p.peer_link_fraction = 0.089;
    p.sibling_link_fraction = 0.015;
    p.seed = 2003;
  } else if (name == "gao2005") {
    p.node_count = scaled(5200);
    p.tier1_count = 12;
    p.transit_fraction = 0.16;
    p.peer_link_fraction = 0.083;
    p.sibling_link_fraction = 0.015;
    p.seed = 2005;
  } else if (name == "internet2006") {
    // Measured-Internet scale (ROADMAP item 1): ~70k ASes and ~140k links at
    // scale 1.0, with the Table 5.1 mix — a thin very-high-degree core, a
    // ~13% transit tier, ~62% multi-homed stubs drawing 2-4 providers, and
    // peer/sibling fractions at the top of the measured range. The softer
    // attachment bias spreads the transit tier into the heavy degree tail
    // the RouteViews-derived graphs show, instead of collapsing onto the
    // clique.
    p.node_count = scaled(70000);
    p.tier1_count = 16;
    p.transit_fraction = 0.13;
    p.multi_home_probability = 0.62;
    p.peer_link_fraction = 0.10;
    p.sibling_link_fraction = 0.012;
    p.attachment_bias = 1.25;
    p.seed = 2006;
  } else if (name == "agarwal2004") {
    p.node_count = scaled(4200);
    p.tier1_count = 10;
    p.transit_fraction = 0.17;
    p.peer_link_fraction = 0.093;
    p.sibling_link_fraction = 0.005;
    p.seed = 2004;
  } else if (name == "tiny") {
    p.node_count = scaled(260);
    p.tier1_count = 4;
    p.transit_fraction = 0.22;
    p.peer_link_fraction = 0.08;
    p.sibling_link_fraction = 0.02;
    // Small graphs compress the degree tail; bias attachment harder so the
    // "few very-high-degree cores" property survives the scale-down.
    p.attachment_bias = 1.6;
    p.seed = 7;
  } else {
    throw Error("profile: unknown topology profile '" + std::string(name) +
                "'");
  }
  return p;
}

}  // namespace miro::topo
