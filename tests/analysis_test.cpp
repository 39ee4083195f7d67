#include <gtest/gtest.h>

#include <string_view>

#include "analysis/config_lint.hpp"
#include "analysis/convergence_lint.hpp"
#include "analysis/diagnostics.hpp"
#include "convergence/gadgets.hpp"
#include "policy/aspath_regex.hpp"
#include "policy/policy_config.hpp"
#include "topology/as_graph.hpp"

namespace miro::analysis {
namespace {

using conv::Guideline;

// --------------------------------------------------------------- diagnostics

TEST(Diagnostics, TextRenderingIsCompilerStyle) {
  Report report;
  report.add(Severity::Error, "x.y", "boom").at("cfg", 3).fix("defuse");
  report.add(Severity::Warning, "x.z", "meh").at("cfg", 1).note("witness");
  report.sort();
  const std::string text = report.text();
  EXPECT_NE(text.find("cfg:3: error: boom [x.y]"), std::string::npos);
  EXPECT_NE(text.find("  fix-it: defuse"), std::string::npos);
  EXPECT_NE(text.find("cfg:1: warning: meh [x.z]"), std::string::npos);
  EXPECT_NE(text.find("  note: witness"), std::string::npos);
  EXPECT_NE(text.find("1 error(s), 1 warning(s), 0 note(s)"),
            std::string::npos);
  // Sorted by line: the warning on line 1 renders first.
  EXPECT_LT(text.find("cfg:1:"), text.find("cfg:3:"));
}

TEST(Diagnostics, LocationlessDiagnosticOmitsPrefix) {
  Report report;
  report.add(Severity::Note, "a.b", "floating");
  // No file means no "file:line:" prefix: the line starts at the severity.
  EXPECT_EQ(report.text().rfind("note: floating [a.b]\n", 0), 0u);
}

TEST(Diagnostics, JsonRoundTripsThroughParser) {
  Report report;
  report.add(Severity::Error, "x.y", "a \"quoted\" msg").at("f.conf", 7);
  report.add(Severity::Warning, "x.z", "warn").note("n1").note("n2");
  const JsonValue parsed = JsonValue::parse(report.to_json().dump());
  ASSERT_EQ(parsed.at("diagnostics").size(), 2u);
  const JsonValue& first = parsed.at("diagnostics").at(0);
  EXPECT_EQ(first.at("severity").as_string(), "error");
  EXPECT_EQ(first.at("check").as_string(), "x.y");
  EXPECT_EQ(first.at("file").as_string(), "f.conf");
  EXPECT_EQ(first.at("line").as_number(), 7);
  EXPECT_EQ(first.at("message").as_string(), "a \"quoted\" msg");
  const JsonValue& second = parsed.at("diagnostics").at(1);
  EXPECT_FALSE(second.contains("file"));
  ASSERT_EQ(second.at("notes").size(), 2u);
  EXPECT_EQ(second.at("notes").at(1).as_string(), "n2");
  EXPECT_EQ(parsed.at("counts").at("error").as_number(), 1);
  EXPECT_EQ(parsed.at("counts").at("warning").as_number(), 1);
  EXPECT_EQ(parsed.at("counts").at("note").as_number(), 0);
}

TEST(Diagnostics, CountsAndLookups) {
  Report report;
  EXPECT_TRUE(report.empty());
  report.add(Severity::Error, "one", "m");
  report.add(Severity::Error, "two", "m");
  report.add(Severity::Note, "three", "m");
  EXPECT_EQ(report.size(), 3u);
  EXPECT_EQ(report.error_count(), 2u);
  EXPECT_EQ(report.count(Severity::Note), 1u);
  EXPECT_TRUE(report.has("two"));
  EXPECT_FALSE(report.has("nope"));
  Report other;
  other.add(Severity::Warning, "four", "m");
  report.merge(other);
  EXPECT_EQ(report.size(), 4u);
  EXPECT_TRUE(report.has("four"));
}

// -------------------------------------------------------------- config lint

Report lint(std::string_view text) {
  return lint_config(policy::parse_config(text), "test.conf");
}

bool has_severity(const Report& report, std::string_view check,
                  Severity severity) {
  for (const Diagnostic& d : report.diagnostics())
    if (d.check == check && d.severity == severity) return true;
  return false;
}

TEST(ConfigLint, CleanConfigHasNoFindings) {
  const Report report = lint(R"(
router bgp 65001
ip as-path access-list 10 permit _7007_
route-map in-map permit 10
 match as-path 10
 set local-preference 120
neighbor 10.0.0.1 remote-as 65010
neighbor 10.0.0.1 route-map in-map in
)");
  EXPECT_TRUE(report.empty()) << report.text();
}

TEST(ConfigLint, UndefinedAclReferenceIsError) {
  const Report report = lint(R"(
router bgp 1
route-map m permit 10
 match as-path 55
neighbor 10.0.0.1 route-map m in
)");
  EXPECT_TRUE(has_severity(report, "policy.acl.undefined", Severity::Error));
}

TEST(ConfigLint, UnusedAclWarns) {
  const Report report = lint("router bgp 1\n"
                             "ip as-path access-list 7 permit .*\n");
  EXPECT_TRUE(has_severity(report, "policy.acl.unused", Severity::Warning));
}

TEST(ConfigLint, EmptyLanguageRegexIsError) {
  const Report report = lint(R"(
router bgp 1
ip as-path access-list 9 permit ^65010$5
route-map m permit 10
 match as-path 9
neighbor 10.0.0.1 route-map m in
)");
  EXPECT_TRUE(has_severity(report, "policy.regex.empty", Severity::Error));
  // The unmatchable permit also makes the clause dead.
  EXPECT_TRUE(has_severity(report, "policy.routemap.never-matches",
                           Severity::Warning));
}

TEST(ConfigLint, DuplicateSequenceIsError) {
  const Report report = lint(R"(
router bgp 1
ip as-path access-list 1 permit .*
route-map m permit 10
 match as-path 1
route-map m deny 10
 match as-path 1
neighbor 10.0.0.1 route-map m in
)");
  EXPECT_TRUE(
      has_severity(report, "policy.routemap.duplicate-seq", Severity::Error));
}

TEST(ConfigLint, UnconditionalClauseShadowsLaterSequences) {
  const Report report = lint(R"(
router bgp 1
ip as-path access-list 1 permit .*
route-map m permit 10
 set local-preference 50
route-map m permit 20
 match as-path 1
neighbor 10.0.0.1 route-map m in
)");
  EXPECT_TRUE(
      has_severity(report, "policy.routemap.shadowed", Severity::Error));
}

TEST(ConfigLint, UnboundRouteMapWarns) {
  const Report report = lint(R"(
router bgp 1
ip as-path access-list 1 permit .*
route-map orphan permit 10
 match as-path 1
)");
  EXPECT_TRUE(
      has_severity(report, "policy.routemap.unused", Severity::Warning));
}

TEST(ConfigLint, UndefinedRouteMapBindingIsError) {
  const Report report = lint("router bgp 1\n"
                             "neighbor 10.0.0.1 route-map ghost out\n");
  EXPECT_TRUE(
      has_severity(report, "policy.routemap.undefined", Severity::Error));
}

TEST(ConfigLint, NegotiationReferenceChecks) {
  const Report undefined = lint(R"(
router bgp 1
route-map m permit 10
 match as-path 1
 try negotiation ghost
ip as-path access-list 1 permit .*
neighbor 10.0.0.1 route-map m in
)");
  EXPECT_TRUE(has_severity(undefined, "policy.negotiation.undefined",
                           Severity::Error));
  const Report unused = lint(R"(
router bgp 1
negotiation lonely
 match all path .*
 start negotiation with maximum cost 10
)");
  EXPECT_TRUE(
      has_severity(unused, "policy.negotiation.unused", Severity::Warning));
  const Report empty = lint(R"(
router bgp 1
negotiation n
 match all path ^65010$5
 start negotiation with maximum cost 10
route-map m permit 10
 match as-path 1
 try negotiation n
ip as-path access-list 1 permit .*
neighbor 10.0.0.1 route-map m in
)");
  EXPECT_TRUE(has_severity(empty, "policy.regex.empty", Severity::Error));
}

TEST(ConfigLint, ResponderChecks) {
  const Report never = lint("router bgp 1\n"
                            "accept negotiation from any\n"
                            "when tunnel_number < 0\n");
  EXPECT_TRUE(
      has_severity(never, "policy.responder.never-admits", Severity::Error));
  const Report shadowed = lint(R"(
router bgp 1
accept negotiation from any
negotiation filter pricing
 filter permit local_pref > 100
 set tunnel_cost 5
 filter permit local_pref > 200
 set tunnel_cost 1
)");
  EXPECT_TRUE(has_severity(shadowed, "policy.responder.filter-shadowed",
                           Severity::Warning));
}

TEST(ConfigLint, MissingRouterStatementIsNote) {
  const Report report = lint("ip as-path access-list 1 permit .*\n");
  EXPECT_TRUE(has_severity(report, "policy.router.missing", Severity::Note));
}

// The acceptance scenario: one config carrying an undefined ACL reference, a
// shadowed sequence, and an empty-language regex produces three distinct
// error check ids (and miro_lint exits nonzero on it).
TEST(ConfigLint, BrokenConfigProducesThreeDistinctErrorChecks) {
  const Report report = lint(R"(
router bgp 65099
ip as-path access-list 30 permit ^65010$5
route-map lint-demo permit 10
 set local-preference 200
route-map lint-demo permit 20
 match as-path 40
route-map lint-demo permit 30
 match as-path 30
neighbor 192.0.2.1 remote-as 65010
neighbor 192.0.2.1 route-map lint-demo in
)");
  EXPECT_TRUE(has_severity(report, "policy.regex.empty", Severity::Error));
  EXPECT_TRUE(
      has_severity(report, "policy.routemap.shadowed", Severity::Error));
  EXPECT_TRUE(has_severity(report, "policy.acl.undefined", Severity::Error));
  EXPECT_GE(report.error_count(), 3u);
}

// --------------------------------------------------------- convergence lint

TEST(ConvergenceLint, Figure71WithoutGuidelinesHasDisputeWheel) {
  const conv::MiroGadget gadget = conv::make_figure_7_1(Guideline::None);
  const Report report = lint_system(gadget.graph, gadget.destinations,
                                    gadget.options, "fig7.1");
  ASSERT_TRUE(report.has("conv.dispute-wheel")) << report.text();
  EXPECT_GE(report.error_count(), 1u);
  // The witness names the pivot ASes and prints the rim paths.
  const std::string text = report.text();
  EXPECT_NE(text.find("pivots"), std::string::npos);
  EXPECT_NE(text.find("rim path"), std::string::npos);
  EXPECT_NE(text.find("10 20 40"), std::string::npos);
}

TEST(ConvergenceLint, Figure71StrictPolicyBreaksTheWheel) {
  const conv::MiroGadget gadget = conv::make_figure_7_1(Guideline::StrictOnly);
  const Report report = lint_system(gadget.graph, gadget.destinations,
                                    gadget.options, "fig7.1");
  EXPECT_FALSE(report.has("conv.dispute-wheel")) << report.text();
  EXPECT_EQ(report.error_count(), 0u) << report.text();
}

TEST(ConvergenceLint, Figure72DivergesEvenUnderStrictPolicy) {
  for (const Guideline guideline : {Guideline::None, Guideline::StrictOnly}) {
    const conv::MiroGadget gadget = conv::make_figure_7_2(guideline);
    const Report report = lint_system(gadget.graph, gadget.destinations,
                                      gadget.options, "fig7.2");
    EXPECT_TRUE(report.has("conv.dispute-wheel"))
        << conv::to_string(guideline) << "\n"
        << report.text();
  }
}

TEST(ConvergenceLint, CompliantGuidelinesLintClean) {
  for (const Guideline guideline :
       {Guideline::B, Guideline::C, Guideline::D, Guideline::E}) {
    for (const bool second_figure : {false, true}) {
      const conv::MiroGadget gadget = second_figure
                                          ? conv::make_figure_7_2(guideline)
                                          : conv::make_figure_7_1(guideline);
      const Report report = lint_system(gadget.graph, gadget.destinations,
                                        gadget.options, "gadget");
      EXPECT_EQ(report.error_count(), 0u)
          << "figure " << (second_figure ? "7.2" : "7.1") << " under "
          << conv::to_string(guideline) << "\n"
          << report.text();
      EXPECT_FALSE(report.has("conv.dispute-wheel"));
    }
  }
}

TEST(ConvergenceLint, GuidelineDWithoutDeclaredOrderIsError) {
  conv::MiroGadget gadget = conv::make_figure_7_2(Guideline::D);
  gadget.options.partial_order = nullptr;
  const Report report = lint_system(gadget.graph, gadget.destinations,
                                    gadget.options, "fig7.2");
  EXPECT_TRUE(report.has("conv.guideline-d.order-missing"));
  EXPECT_GE(report.error_count(), 1u);
}

TEST(ConvergenceLint, CyclicGuidelineDOrderIsNotStrict) {
  conv::MiroGadget gadget = conv::make_figure_7_2(Guideline::D);
  // 0 ≺ 1 ≺ 2 ≺ 3 ≺ 0: irreflexive but cyclic, so no strict partial order
  // extends it — and it no longer gates the cyclic tunnel preferences.
  gadget.options.partial_order = [](topo::NodeId, topo::NodeId v,
                                    topo::NodeId d) {
    return d == (v + 1) % 4;
  };
  const Report report = lint_system(gadget.graph, gadget.destinations,
                                    gadget.options, "fig7.2");
  EXPECT_TRUE(report.has("conv.guideline-d.order-not-strict"))
      << report.text();
}

TEST(ConvergenceLint, ReflexiveGuidelineDOrderIsNotStrict) {
  conv::MiroGadget gadget = conv::make_figure_7_2(Guideline::D);
  gadget.options.partial_order = [](topo::NodeId, topo::NodeId,
                                    topo::NodeId) { return true; };
  const Report report = lint_system(gadget.graph, gadget.destinations,
                                    gadget.options, "fig7.2");
  EXPECT_TRUE(report.has("conv.guideline-d.order-not-strict"));
}

TEST(ConvergenceLint, ProviderCycleDetected) {
  topo::GraphBuilder builder;
  const topo::NodeId a = builder.add_as(100);
  const topo::NodeId b = builder.add_as(200);
  const topo::NodeId c = builder.add_as(300);
  // a provides for b, b for c, c for a: everyone is their own indirect
  // provider.
  builder.add_customer_provider(a, b);
  builder.add_customer_provider(b, c);
  builder.add_customer_provider(c, a);
  const topo::AsGraph graph = std::move(builder).build();
  const Report report = lint_topology(graph, "cycle");
  ASSERT_TRUE(report.has("conv.guideline-a.provider-cycle"));
  EXPECT_EQ(report.error_count(), 1u);
  EXPECT_NE(report.text().find("witness"), std::string::npos);
}

TEST(ConvergenceLint, GadgetTopologiesAreProviderAcyclic) {
  const conv::MiroGadget gadget = conv::make_figure_7_1(Guideline::None);
  EXPECT_TRUE(lint_topology(gadget.graph, "fig7.1").empty());
}

TEST(ConvergenceLint, MalformedTunnelSpecIsError) {
  conv::MiroGadget gadget = conv::make_figure_7_1(Guideline::None);
  // Break the first tunnel's pinned path: starts at the wrong node.
  auto& path = *gadget.options.tunnels.front().required_path;
  std::swap(path.front(), path.back());
  const Report report = lint_system(gadget.graph, gadget.destinations,
                                    gadget.options, "fig7.1");
  EXPECT_TRUE(report.has("conv.tunnel.bad-spec"));
}

TEST(ConvergenceLint, ValleyExportWarnsOnlyWithoutGuidelines) {
  const conv::MiroGadget none = conv::make_figure_7_1(Guideline::None);
  EXPECT_TRUE(lint_system(none.graph, none.destinations, none.options, "g")
                  .has("conv.guideline-a.valley-export"));
  const conv::MiroGadget b = conv::make_figure_7_1(Guideline::B);
  EXPECT_FALSE(lint_system(b.graph, b.destinations, b.options, "g")
                   .has("conv.guideline-a.valley-export"));
}

TEST(ConvergenceLint, GuidelineESerialisationIsNoted) {
  const conv::MiroGadget gadget = conv::make_figure_7_2(Guideline::E);
  const Report report = lint_system(gadget.graph, gadget.destinations,
                                    gadget.options, "fig7.2");
  EXPECT_TRUE(report.has("conv.guideline-e.serialised"));
  EXPECT_EQ(report.error_count(), 0u);
}

TEST(ConvergenceLint, BadDestinationIsError) {
  const conv::MiroGadget gadget = conv::make_figure_7_1(Guideline::None);
  const std::vector<topo::NodeId> destinations{999};
  const Report report =
      lint_system(gadget.graph, destinations, gadget.options, "fig7.1");
  EXPECT_TRUE(report.has("conv.system.bad-destination"));
}

// --------------------------------------------- automaton product emptiness

// Layer 3's admissibility check rests on AsPathRegex::intersection_empty;
// these pin its corner cases: digit-exact anchored disjointness, the
// substring-window ("match anywhere") semantics, shared suffixes, symmetry,
// and the conservative direction of the blowup guard.

bool disjoint(std::string_view a, std::string_view b,
              std::size_t max_configs = 1u << 20) {
  const policy::AsPathRegex left{a};
  const policy::AsPathRegex right{b};
  // The product is symmetric; assert both directions agree while we're here.
  const bool forward = left.intersection_empty(right, max_configs);
  EXPECT_EQ(forward, right.intersection_empty(left, max_configs))
      << a << " vs " << b;
  return forward;
}

TEST(AsPathProduct, AnchoredDigitDisjointness) {
  // Exactly "1" vs exactly "2": no shared word, decided per digit.
  EXPECT_TRUE(disjoint("^1$", "^2$"));
  EXPECT_FALSE(disjoint("^1$", "^1$"));
  // "1 ..." vs "2 ...": first number already differs.
  EXPECT_TRUE(disjoint("^1_", "^2_"));
  // A word containing 12 can also be exactly 12.
  EXPECT_FALSE(disjoint("_12_", "^12$"));
  // Substring windows: some path contains both 7007 and 65010.
  EXPECT_FALSE(disjoint("_7007_", "_65010_"));
  // But a path that is exactly "2 3" never contains the number 1 on a
  // boundary.
  EXPECT_TRUE(disjoint("_1_", "^2 3$"));
}

TEST(AsPathProduct, EmptyComplementIntersectsNothing) {
  // [a-z] matches no rendered AS path at all (the alphabet is digits and
  // spaces), so even against .* the product is empty.
  EXPECT_TRUE(policy::AsPathRegex("[a-z]").language_empty());
  EXPECT_TRUE(disjoint("[a-z]", ".*"));
  EXPECT_TRUE(disjoint(".*", "[a-z]"));
  EXPECT_FALSE(disjoint(".*", ".*"));
}

TEST(AsPathProduct, LongSharedSuffixesStayJoint) {
  // Both demand a long shared tail: the witness must thread both NFAs
  // through every digit of the suffix.
  EXPECT_FALSE(disjoint("_65001 65002 65003 65004$", "_65002 65003 65004$"));
  EXPECT_FALSE(disjoint(".*65001 65002 65003$", "_65002 65003$"));
  // Same long tails, but the last number differs in its final digit.
  EXPECT_TRUE(disjoint("^65001 65002 65003$", "^65001 65002 65004$"));
  // A fixed-exact word vs a longer suffix demand containing it.
  EXPECT_TRUE(disjoint("^65003 65004$", "_65002 65003 65004$"));
}

TEST(AsPathProduct, BlowupGuardIsConservative) {
  // With a tiny configuration budget the product gives up and answers
  // "may intersect" — never a wrong "disjoint" — even on a pair whose
  // product is provably empty.
  EXPECT_TRUE(disjoint("^1$", "^2$"));
  EXPECT_FALSE(disjoint("^1$", "^2$", 2));
}

}  // namespace
}  // namespace miro::analysis
