#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "policy/aspath_regex.hpp"
#include "policy/policy_config.hpp"
#include "policy/policy_engine.hpp"

namespace miro::policy {
namespace {

// ------------------------------------------------------------ AS-path regex

TEST(AsPathRegex, UnderscoreMatchesWholeAsNumber) {
  AsPathRegex regex("_312_");
  EXPECT_TRUE(regex.matches({100, 312, 200}));
  EXPECT_TRUE(regex.matches({312}));
  EXPECT_TRUE(regex.matches({312, 100}));
  EXPECT_TRUE(regex.matches({100, 312}));
  EXPECT_FALSE(regex.matches({1312}));
  EXPECT_FALSE(regex.matches({3120}));
  EXPECT_FALSE(regex.matches({13120}));
  EXPECT_FALSE(regex.matches({100, 200}));
}

TEST(AsPathRegex, AnchorsBindToStartAndEnd) {
  AsPathRegex starts("^100_");
  EXPECT_TRUE(starts.matches({100, 200}));
  EXPECT_FALSE(starts.matches({200, 100}));
  AsPathRegex ends("_200$");
  EXPECT_TRUE(ends.matches({100, 200}));
  EXPECT_FALSE(ends.matches({200, 100}));
  AsPathRegex exact("^100$");
  EXPECT_TRUE(exact.matches({100}));
  EXPECT_FALSE(exact.matches({100, 200}));
}

TEST(AsPathRegex, EmptyPatternMatchesEmptyPath) {
  AsPathRegex empty("^$");
  EXPECT_TRUE(empty.matches({}));
  EXPECT_FALSE(empty.matches({1}));
}

TEST(AsPathRegex, AlternationAndGrouping) {
  AsPathRegex regex("_(701|1239)_");
  EXPECT_TRUE(regex.matches({100, 701, 200}));
  EXPECT_TRUE(regex.matches({100, 1239}));
  EXPECT_FALSE(regex.matches({100, 7011}));
}

TEST(AsPathRegex, RepetitionOperators) {
  AsPathRegex star("^10*$");
  EXPECT_TRUE(star.matches_text("1"));
  EXPECT_TRUE(star.matches_text("1000"));
  EXPECT_FALSE(star.matches_text("11"));
  AsPathRegex plus("^10+$");
  EXPECT_FALSE(plus.matches_text("1"));
  EXPECT_TRUE(plus.matches_text("100"));
  AsPathRegex question("^10?$");
  EXPECT_TRUE(question.matches_text("1"));
  EXPECT_TRUE(question.matches_text("10"));
  EXPECT_FALSE(question.matches_text("100"));
}

TEST(AsPathRegex, DotAndCharacterClasses) {
  AsPathRegex dot("^1.3$");
  EXPECT_TRUE(dot.matches_text("123"));
  EXPECT_TRUE(dot.matches_text("1x3"));
  EXPECT_FALSE(dot.matches_text("13"));
  AsPathRegex digits("^[0-9]+$");
  EXPECT_TRUE(digits.matches_text("8075"));
  EXPECT_FALSE(digits.matches_text("80a5"));
  AsPathRegex negated("^[^5]+$");
  EXPECT_TRUE(negated.matches_text("1234"));
  EXPECT_FALSE(negated.matches_text("15"));
}

TEST(AsPathRegex, SubstringSemanticsByDefault) {
  AsPathRegex regex("701");
  EXPECT_TRUE(regex.matches({17012}));  // matches inside a number, as Cisco
  EXPECT_TRUE(regex.matches({701}));
}

TEST(AsPathRegex, GroupRepetition) {
  AsPathRegex regex("^(12 )+34$");
  EXPECT_TRUE(regex.matches({12, 34}));
  EXPECT_TRUE(regex.matches({12, 12, 34}));
  EXPECT_FALSE(regex.matches({34}));
}

TEST(AsPathRegex, SyntaxErrorsThrow) {
  EXPECT_THROW(AsPathRegex("(12"), Error);
  EXPECT_THROW(AsPathRegex("12)"), Error);
  EXPECT_THROW(AsPathRegex("[12"), Error);
  EXPECT_THROW(AsPathRegex("*12"), Error);
  EXPECT_THROW(AsPathRegex("12\\"), Error);  // dangling escape
}

TEST(AsPathRegex, EscapedLiterals) {
  AsPathRegex regex("^1\\.2$");
  EXPECT_TRUE(regex.matches_text("1.2"));
  EXPECT_FALSE(regex.matches_text("1x2"));
}

// ----------------------------------------------------------------- parsing

const char* kSection61Example = R"(
router bgp 100
!
neighbor 12.34.56.1 route-map FIX-LOCALPREF in
neighbor 12.34.56.1 remote-as 1
!
route-map FIX-LOCALPREF permit
match as-path 200
set local-preference 250
!
ip as-path access-list 200 deny _312_
ip as-path access-list 200 permit .*
)";

TEST(PolicyConfig, ParsesSection61Example) {
  const BgpConfig config = parse_config(kSection61Example);
  EXPECT_EQ(config.local_as, 100u);
  ASSERT_EQ(config.neighbors.size(), 1u);
  EXPECT_EQ(config.neighbors[0].remote_as, 1u);
  EXPECT_EQ(config.neighbors[0].route_map_in, "FIX-LOCALPREF");
  ASSERT_EQ(config.route_map("FIX-LOCALPREF").size(), 1u);
  ASSERT_NE(config.access_list(200), nullptr);
  EXPECT_EQ(config.access_list(200)->entries.size(), 2u);
}

TEST(PolicyEngine, RouteMapSetsLocalPrefOnPermittedRoutes) {
  PolicyEngine engine(parse_config(kSection61Example));
  // Routes avoiding AS 312 fall through the deny to the permit-any entry...
  // wait: access-list 200 DENIES _312_ and permits everything else, and the
  // route map permits what the list permits, setting local-pref 250.
  auto clean = engine.apply_route_map("FIX-LOCALPREF",
                                      {{100, 200, 300}, 100});
  ASSERT_TRUE(clean.has_value());
  EXPECT_EQ(clean->local_pref, 250);
  auto dirty = engine.apply_route_map("FIX-LOCALPREF", {{100, 312}, 100});
  EXPECT_FALSE(dirty.has_value());  // matched deny entry -> filtered
}

const char* kSection63Requester = R"(
router bgp 100
!
route-map AVOID_AS permit 10
match empty path 200
try negotiation NEG-312
!
ip as-path access-list 200 deny _312_
ip as-path access-list 200 permit .*
!
negotiation NEG-312
match all path _312_
start negotiation with maximum cost 250
)";

TEST(PolicyConfig, ParsesSection63RequesterSide) {
  const BgpConfig config = parse_config(kSection63Requester);
  const auto clauses = config.route_map("AVOID_AS");
  ASSERT_EQ(clauses.size(), 1u);
  EXPECT_EQ(clauses[0]->sequence, 10);
  EXPECT_EQ(clauses[0]->match_empty_path_acl, 200);
  EXPECT_EQ(clauses[0]->try_negotiation, "NEG-312");
  const auto it = config.negotiations.find("NEG-312");
  ASSERT_NE(it, config.negotiations.end());
  EXPECT_EQ(it->second.max_cost, 250);
  ASSERT_TRUE(it->second.target_path_regex.has_value());
}

TEST(PolicyEngine, TriggerFiresOnlyWhenNoCandidatePasses) {
  PolicyEngine engine(parse_config(kSection63Requester));
  // All candidates traverse AS 312: the empty-path condition holds.
  const std::vector<CandidateRoute> all_bad{{{20, 312, 99}, 400},
                                            {{30, 40, 312, 99}, 200}};
  const auto trigger = engine.evaluate_trigger("AVOID_AS", all_bad);
  ASSERT_TRUE(trigger.has_value());
  EXPECT_EQ(trigger->negotiation_name, "NEG-312");
  EXPECT_EQ(trigger->max_cost, 250);
  // Targets: ASes sitting before 312 on the offending paths, nearest first.
  EXPECT_EQ(trigger->targets, (std::vector<topo::AsNumber>{20, 30, 40}));

  // One clean candidate suppresses the trigger.
  const std::vector<CandidateRoute> one_good{{{20, 312, 99}, 400},
                                             {{50, 60, 99}, 200}};
  EXPECT_FALSE(engine.evaluate_trigger("AVOID_AS", one_good).has_value());
}

const char* kSection63Responder = R"(
router bgp 150
!
accept negotiation from any
when tunnel_number < 1000
!
negotiation filter FILTER-1
filter permit local_pref > 200
set tunnel_cost 120
filter permit local_pref > 100
set tunnel_cost 180
)";

TEST(PolicyConfig, ParsesSection63ResponderSide) {
  const BgpConfig config = parse_config(kSection63Responder);
  ASSERT_TRUE(config.responder.has_value());
  EXPECT_TRUE(config.responder->accept_any);
  EXPECT_EQ(config.responder->max_tunnels, 1000u);
  ASSERT_EQ(config.responder->filters.size(), 2u);
  EXPECT_EQ(config.responder->filters[0].tunnel_cost, 120);
  EXPECT_EQ(config.responder->filters[1].tunnel_cost, 180);
}

TEST(PolicyEngine, ResponderPricingByLocalPrefBand) {
  const ResponderSpec responder = *parse_config(kSection63Responder).responder;
  // Customer routes (local_pref > 200) sell for 120, peer routes for 180,
  // provider routes (<= 100) are not offered at all.
  EXPECT_EQ(responder.price_for(400), 120);
  EXPECT_EQ(responder.price_for(150), 180);
  EXPECT_FALSE(responder.price_for(100).has_value());
}

TEST(PolicyEngine, ResponderAdmission) {
  const ResponderSpec responder = *parse_config(kSection63Responder).responder;
  EXPECT_TRUE(responder.admits(42, 0));
  EXPECT_TRUE(responder.admits(42, 999));
  EXPECT_FALSE(responder.admits(42, 1000));  // tunnel_number limit reached
}

TEST(PolicyConfig, AcceptFromSpecificAses) {
  const BgpConfig config = parse_config(
      "accept negotiation from as 100 200\nwhen tunnel_number < 5\n");
  const ResponderSpec& responder = *config.responder;
  EXPECT_TRUE(responder.admits(100, 0));
  EXPECT_TRUE(responder.admits(200, 0));
  EXPECT_FALSE(responder.admits(300, 0));
}

TEST(PolicyConfig, RouteMapClausesEvaluateInSequenceOrder) {
  const char* text = R"(
route-map M permit 20
match as-path 1
set local-preference 100
route-map M deny 10
match as-path 2
ip as-path access-list 1 permit .*
ip as-path access-list 2 permit _666_
)";
  PolicyEngine engine(parse_config(text));
  // Sequence 10 (deny _666_) runs before sequence 20.
  EXPECT_FALSE(engine.apply_route_map("M", {{666}, 50}).has_value());
  auto ok = engine.apply_route_map("M", {{100}, 50});
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(ok->local_pref, 100);
}

TEST(PolicyConfig, MalformedStatementsThrowWithLineNumbers) {
  try {
    parse_config("router bgp 100\nbogus statement here\n");
    FAIL() << "expected Error";
  } catch (const Error& error) {
    EXPECT_NE(std::string(error.what()).find("line 2"), std::string::npos);
  }
  EXPECT_THROW(parse_config("route-map X maybe 10\n"), Error);
  EXPECT_THROW(parse_config("ip as-path access-list x permit .*\n"), Error);
  EXPECT_THROW(parse_config("when tunnel_number < 5\n"), Error);  // no block
  EXPECT_THROW(parse_config("negotiation\n"), Error);
  EXPECT_THROW(parse_config("set local-preference 10\n"), Error);
}

TEST(PolicyEngine, UnknownRouteMapThrows) {
  PolicyEngine engine(parse_config("router bgp 1\n"));
  EXPECT_THROW(engine.apply_route_map("NOPE", {{1}, 1}), Error);
}

TEST(PolicyConfig, RandomGarbageNeverCrashes) {
  // Fuzz-ish robustness: arbitrary token soup must either parse or throw
  // miro::Error — never crash or hang.
  Rng rng(0xfeed);
  const char* words[] = {"router",    "bgp",    "route-map", "permit",
                         "deny",      "match",  "set",       "negotiation",
                         "ip",        "as-path", "access-list", "filter",
                         "when",      "accept", "from",      "any",
                         "100",       "-5",     "_312_",     "(",
                         "tunnel_number", "<",  "local_pref", ">",
                         "!",         "x"};
  for (int trial = 0; trial < 300; ++trial) {
    std::string config;
    const std::size_t lines = rng.next_below(6) + 1;
    for (std::size_t l = 0; l < lines; ++l) {
      const std::size_t tokens = rng.next_below(6) + 1;
      for (std::size_t t = 0; t < tokens; ++t) {
        config += words[rng.next_below(std::size(words))];
        config += ' ';
      }
      config += '\n';
    }
    try {
      parse_config(config);
    } catch (const Error&) {
      // expected for most random inputs
    }
  }
}

TEST(AsPathRegex, NestedAlternation) {
  AsPathRegex regex("^(1(2|3)|4(5|(6|7)))$");
  EXPECT_TRUE(regex.matches_text("12"));
  EXPECT_TRUE(regex.matches_text("13"));
  EXPECT_TRUE(regex.matches_text("45"));
  EXPECT_TRUE(regex.matches_text("46"));
  EXPECT_TRUE(regex.matches_text("47"));
  EXPECT_FALSE(regex.matches_text("14"));
  EXPECT_FALSE(regex.matches_text("4"));
  EXPECT_FALSE(regex.matches_text("123"));
}

TEST(AsPathRegex, NegatedClasses) {
  AsPathRegex not_zero("^[^0]$");
  EXPECT_TRUE(not_zero.matches_text("5"));
  EXPECT_FALSE(not_zero.matches_text("0"));
  // A negated class consumes exactly one character; it cannot match nothing.
  EXPECT_FALSE(not_zero.matches_text(""));
  AsPathRegex interior("^1[^ ]1$");
  EXPECT_TRUE(interior.matches_text("121"));
  EXPECT_FALSE(interior.matches_text("1 1"));
  // Negation of a range.
  AsPathRegex high("^[^0-4]+$");
  EXPECT_TRUE(high.matches_text("789"));
  EXPECT_FALSE(high.matches_text("782"));
}

TEST(AsPathRegex, BoundaryAtStringEdges) {
  // `_` is satisfied by the start and the end of the rendered path, not
  // only by interior spaces.
  AsPathRegex leading("_312");
  EXPECT_TRUE(leading.matches({312}));
  EXPECT_TRUE(leading.matches({100, 312}));
  EXPECT_FALSE(leading.matches({1312}));
  AsPathRegex trailing("312_");
  EXPECT_TRUE(trailing.matches({312}));
  EXPECT_TRUE(trailing.matches({312, 100}));
  EXPECT_FALSE(trailing.matches({3120}));
  AsPathRegex both("_312_");
  EXPECT_TRUE(both.matches({312}));
  // Doubled boundaries collapse: both are satisfied at the same position.
  AsPathRegex doubled("__312__");
  EXPECT_TRUE(doubled.matches({312}));
  EXPECT_TRUE(doubled.matches({100, 312, 200}));
  EXPECT_FALSE(doubled.matches({3120}));
}

TEST(AsPathRegex, PathologicalRepetitionStaysLinear) {
  // (a*)*-style patterns explode backtracking matchers; the Thompson NFA
  // simulation stays linear in the input, so these complete instantly.
  AsPathRegex nested("^(((0*)*)*)*$");
  std::string zeros(5000, '0');
  EXPECT_TRUE(nested.matches_text(zeros));
  EXPECT_FALSE(nested.matches_text(zeros + "1"));
  AsPathRegex ambiguous("^(0|00)+$");
  EXPECT_TRUE(ambiguous.matches_text(std::string(4999, '0')));
  EXPECT_FALSE(ambiguous.matches_text(std::string(2500, '0') + "1" +
                                      std::string(2499, '0')));
}

// ------------------------------------------------- language emptiness

TEST(AsPathRegexEmptiness, SatisfiablePatternsAreNotEmpty) {
  for (const char* pattern :
       {"_7007_", ".*", "^$", "^100_", "(1|2)*", "_(10|20) 30_", "$",
        "__", "^_1", "[^0-9 ]*", "1_2*"}) {
    EXPECT_FALSE(AsPathRegex(pattern).language_empty()) << pattern;
  }
}

TEST(AsPathRegexEmptiness, ContradictoryPatternsAreEmpty) {
  for (const char* pattern :
       {"^65010$5",   // `$` pins the end but a digit must follow
        "5^",         // `^` after consuming a character
        "$5",         // same for `$` standalone
        "1_2",        // boundary between two digits with no space
        "[^0-9 ]",    // class excludes every rendered character
        "[a-z]",      // letters never appear in a rendered AS path
        "(1|2)$3"}) {  // anchored alternation followed by more input
    EXPECT_TRUE(AsPathRegex(pattern).language_empty()) << pattern;
  }
}

TEST(AsPathRegexEmptiness, EndAnchorThenBoundaryIsSatisfiable) {
  // `$` then `_`: end-of-string is itself a boundary, so `100$_` matches
  // any path ending in 100 — not an empty language.
  AsPathRegex regex("100$_");
  EXPECT_FALSE(regex.language_empty());
  EXPECT_TRUE(regex.matches({100}));
}

TEST(AsPathRegexEmptiness, EmptyVerdictAgreesWithMatching) {
  // Property check: whenever the analysis says the language is empty, no
  // sample path may match (the converse needs a witness generator).
  Rng rng(0x51ac);
  const char alphabet[] = "0123456789 ()|*+?.[]^$_";
  const std::vector<std::vector<topo::AsNumber>> samples = {
      {},       {0},         {1},          {7007},       {65010},
      {10, 20}, {1, 2, 3},   {100, 7007},  {7007, 100},  {65010, 5},
      {5},      {10, 20, 30}};
  int compiled = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    std::string pattern;
    const std::size_t len = rng.next_below(10);
    for (std::size_t i = 0; i < len; ++i)
      pattern += alphabet[rng.next_below(sizeof alphabet - 1)];
    try {
      AsPathRegex regex(pattern);
      ++compiled;
      if (!regex.language_empty()) continue;
      for (const auto& path : samples)
        EXPECT_FALSE(regex.matches(path))
            << "'" << pattern << "' declared empty yet matched a path";
    } catch (const Error&) {
      // malformed pattern: nothing to check
    }
  }
  EXPECT_GT(compiled, 100);  // the fuzz actually exercised the analysis
}

// ------------------------------------------- parser strictness audit

TEST(PolicyConfig, TopLevelCommandClosesOpenBlock) {
  // The `ip` statement closes the route-map block, so the trailing `match`
  // attaches to nothing and must be rejected instead of silently landing on
  // the previous clause.
  EXPECT_THROW(parse_config("route-map m permit 10\n"
                            "ip as-path access-list 1 permit .*\n"
                            "match as-path 1\n"),
               Error);
}

TEST(PolicyConfig, DuplicateBlocksAreRejected) {
  EXPECT_THROW(parse_config("router bgp 1\nrouter bgp 2\n"), Error);
  EXPECT_THROW(parse_config("negotiation n\nnegotiation n\n"), Error);
}

TEST(PolicyConfig, TrailingTokensAreRejected) {
  EXPECT_THROW(parse_config("router bgp 1 2\n"), Error);
  EXPECT_THROW(
      parse_config("neighbor 10.0.0.1 remote-as 5 junk\n"), Error);
  EXPECT_THROW(
      parse_config("ip as-path access-list 1 permit .* junk\n"), Error);
  EXPECT_THROW(parse_config("route-map m permit 10 junk\n"), Error);
  EXPECT_THROW(parse_config("negotiation filter a b\n"), Error);
}

TEST(PolicyConfig, NegativeTunnelBoundIsRejected) {
  EXPECT_THROW(parse_config("accept negotiation from any\n"
                            "when tunnel_number < -1\n"),
               Error);
}

TEST(PolicyConfig, RecordsSourceLines) {
  const BgpConfig config = parse_config("router bgp 1\n"
                                        "ip as-path access-list 1 permit .*\n"
                                        "route-map m permit 10\n"
                                        "match as-path 1\n");
  ASSERT_EQ(config.route_maps.size(), 1u);
  EXPECT_EQ(config.route_maps[0].line, 3);
  EXPECT_EQ(config.route_maps[0].match_as_path_line, 4);
  ASSERT_EQ(config.access_lists.at(1).entries.size(), 1u);
  EXPECT_EQ(config.access_lists.at(1).entries[0].line, 2);
}

TEST(AsPathRegexFuzz, RandomPatternsNeverCrash) {
  Rng rng(0xbeef);
  const char alphabet[] = "0123456789 ()|*+?.[]^$_\\";
  for (int trial = 0; trial < 500; ++trial) {
    std::string pattern;
    const std::size_t len = rng.next_below(12);
    for (std::size_t i = 0; i < len; ++i)
      pattern += alphabet[rng.next_below(sizeof alphabet - 1)];
    try {
      AsPathRegex regex(pattern);
      // Whatever compiled must also match without crashing.
      regex.matches({100, 200, 300});
      regex.matches_text("");
    } catch (const Error&) {
      // expected for malformed patterns
    }
  }
}

}  // namespace
}  // namespace miro::policy
