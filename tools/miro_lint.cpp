// miro_lint — static analyzer for MIRO policy configurations and
// convergence-safety of MIRO systems.
//
//   miro_lint [--json] <config.conf>...      lint policy configurations
//   miro_lint [--json] --topology <file>     Guideline A checks on a CAIDA
//                                            relationship file
//   miro_lint [--json] --gadget <name>       lint a built-in gadget; <name>
//                                            is fig7.1 or fig7.2, optionally
//                                            suffixed :none|:strict|:b|:c|:d|:e
//                                            (default :none), or `all`
//   miro_lint verify [--json] [options]      layer-3 network-wide symbolic
//                                            verification (see verify usage)
//
// Exit status: 0 when no error-severity finding was produced, 1 when at
// least one was, 2 on usage or I/O failure. Findings go to stdout, text by
// default, one JSON document with --json.
#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/config_lint.hpp"
#include "analysis/convergence_lint.hpp"
#include "analysis/verify.hpp"
#include "common/error.hpp"
#include "common/strings.hpp"
#include "convergence/gadgets.hpp"
#include "policy/policy_config.hpp"
#include "topology/generator.hpp"
#include "topology/serialization.hpp"

namespace {

using miro::analysis::Report;
using miro::analysis::Severity;

int usage(std::ostream& out, int status) {
  out << "usage: miro_lint [--json] <config.conf>...\n"
         "       miro_lint [--json] --topology <relationships-file>\n"
         "       miro_lint [--json] --gadget fig7.1[:<guideline>] | "
         "fig7.2[:<guideline>] | all\n"
         "       miro_lint verify [--json] [--profile <name>] [--scale <x>]\n"
         "                 [--seed <n>] [--dests <n>] "
         "[--topology <relationships-file>]\n"
         "                 [--query reach:<src>:<dst> | "
         "avoid:<src>:<dst>:<x>]... [--diff]\n"
         "                 [--requester <conf> --responder <conf>]\n"
         "guidelines: none strict b c d e\n"
         "verify endpoints: AS numbers or synthetic addresses "
         "10.<asn/256>.<asn%256>.0/24\n";
  return status;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  miro::require(static_cast<bool>(in), "cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return std::move(buffer).str();
}

void lint_config_file(Report& report, const std::string& path) {
  try {
    const miro::policy::BgpConfig config =
        miro::policy::parse_config(read_file(path));
    report.merge(miro::analysis::lint_config(config, path));
  } catch (const miro::Error& error) {
    // A config that does not even parse is an error-severity finding, not a
    // tool failure: the lint run over a batch of configs keeps going.
    report.add(Severity::Error, "policy.parse", error.what()).at(path);
  }
}

bool parse_guideline(const std::string& word, miro::conv::Guideline& out) {
  using miro::conv::Guideline;
  if (word == "none") out = Guideline::None;
  else if (word == "strict") out = Guideline::StrictOnly;
  else if (word == "b") out = Guideline::B;
  else if (word == "c") out = Guideline::C;
  else if (word == "d") out = Guideline::D;
  else if (word == "e") out = Guideline::E;
  else return false;
  return true;
}

const char* guideline_suffix(miro::conv::Guideline guideline) {
  using miro::conv::Guideline;
  switch (guideline) {
    case Guideline::None: return "none";
    case Guideline::StrictOnly: return "strict";
    case Guideline::B: return "b";
    case Guideline::C: return "c";
    case Guideline::D: return "d";
    case Guideline::E: return "e";
  }
  return "?";
}

void lint_gadget(Report& report, const std::string& figure,
                 miro::conv::Guideline guideline) {
  const miro::conv::MiroGadget gadget =
      figure == "fig7.1" ? miro::conv::make_figure_7_1(guideline)
                         : miro::conv::make_figure_7_2(guideline);
  const std::string label =
      figure + ":" + guideline_suffix(guideline);
  report.merge(miro::analysis::lint_system(gadget.graph, gadget.destinations,
                                           gadget.options, label));
}

bool lint_gadget_arg(Report& report, const std::string& arg) {
  using miro::conv::Guideline;
  static const Guideline kAll[] = {Guideline::None, Guideline::StrictOnly,
                                   Guideline::B,    Guideline::C,
                                   Guideline::D,    Guideline::E};
  if (arg == "all") {
    for (const char* figure : {"fig7.1", "fig7.2"})
      for (const Guideline guideline : kAll)
        lint_gadget(report, figure, guideline);
    return true;
  }
  std::string figure = arg;
  Guideline guideline = Guideline::None;
  if (const auto colon = arg.find(':'); colon != std::string::npos) {
    figure = arg.substr(0, colon);
    if (!parse_guideline(arg.substr(colon + 1), guideline)) return false;
  }
  if (figure != "fig7.1" && figure != "fig7.2") return false;
  lint_gadget(report, figure, guideline);
  return true;
}

/// `miro_lint verify`: the layer-3 symbolic verification entry point. Runs
/// network-wide verification over a generated profile or a loaded topology
/// (plus any explicit --query), and negotiation admissibility over a
/// --requester/--responder config pair. Same exit contract as the other
/// modes: 1 on error findings, 2 on usage or I/O failure.
int run_verify(const std::vector<std::string>& args) {
  bool json = false;
  bool want_network = false;
  std::string profile = "gao2005";
  double scale = 0.15;
  std::string topology_file;
  std::string requester_file;
  std::string responder_file;
  miro::analysis::VerifyOptions options;

  Report report;
  try {
    for (std::size_t i = 0; i < args.size(); ++i) {
      const std::string& arg = args[i];
      auto value = [&]() -> const std::string& {
        miro::require(i + 1 < args.size(), arg + " needs a value");
        return args[++i];
      };
      // A malformed number is a usage error (exit 2), never an uncaught
      // exception or a negative count wrapped to a huge one.
      auto count = [&]() -> std::uint64_t {
        const std::string& text = value();
        const std::optional<std::uint64_t> parsed = miro::parse_u64(text);
        miro::require(parsed.has_value(), arg +
                      " expects a non-negative integer, got '" + text + "'");
        return *parsed;
      };
      if (arg == "--json") {
        json = true;
      } else if (arg == "--help" || arg == "-h") {
        return usage(std::cout, 0);
      } else if (arg == "--profile") {
        profile = value();
        want_network = true;
      } else if (arg == "--scale") {
        const std::string& text = value();
        const std::optional<double> parsed = miro::parse_finite(text);
        if (!parsed || *parsed <= 0)
          throw miro::Error("--scale expects a positive number, got '" +
                            text + "'");
        scale = *parsed;
        want_network = true;
      } else if (arg == "--seed") {
        options.seed = count();
        want_network = true;
      } else if (arg == "--dests") {
        options.destination_samples = count();
        want_network = true;
      } else if (arg == "--topology") {
        topology_file = value();
        want_network = true;
      } else if (arg == "--query") {
        options.queries.push_back(miro::analysis::VerifyQuery::parse(value()));
        want_network = true;
      } else if (arg == "--diff") {
        options.differential = true;
        want_network = true;
      } else if (arg == "--requester") {
        requester_file = value();
      } else if (arg == "--responder") {
        responder_file = value();
      } else {
        return usage(std::cerr, 2);
      }
    }

    // One --seed steers every sampled stage, including the differential
    // round, so a CI fuzz loop over seeds exercises fresh tuples each time.
    options.diff.seed = options.seed;

    const bool want_admissibility =
        !requester_file.empty() || !responder_file.empty();
    if (want_admissibility) {
      miro::require(!requester_file.empty() && !responder_file.empty(),
                    "verify needs both --requester and --responder");
      // A config that does not parse is an error finding, as in lint mode.
      bool parsed = true;
      miro::policy::BgpConfig requester;
      miro::policy::BgpConfig responder;
      for (const auto& [file, config] :
           {std::pair{&requester_file, &requester},
            std::pair{&responder_file, &responder}}) {
        try {
          *config = miro::policy::parse_config(read_file(*file));
        } catch (const miro::Error& error) {
          report.add(Severity::Error, "policy.parse", error.what()).at(*file);
          parsed = false;
        }
      }
      if (parsed) {
        report.merge(miro::analysis::check_negotiation_admissibility(
            requester, requester_file, responder, responder_file));
      }
    }

    if (want_network || !want_admissibility) {
      std::string label;
      std::unique_ptr<miro::topo::AsGraph> graph;
      if (!topology_file.empty()) {
        graph = std::make_unique<miro::topo::AsGraph>(
            miro::topo::load_file(topology_file));
        label = topology_file;
      } else {
        graph = std::make_unique<miro::topo::AsGraph>(
            miro::topo::generate(miro::topo::profile(profile, scale)));
        label = profile;
      }
      report.merge(miro::analysis::verify_network(*graph, options, label));
    }
  } catch (const miro::Error& error) {
    std::cerr << "miro_lint: " << error.what() << "\n";
    return 2;
  }

  report.sort();
  if (json) {
    std::cout << report.to_json().dump() << "\n";
  } else {
    report.render_text(std::cout);
  }
  return report.error_count() > 0 ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) args.emplace_back(argv[i]);
  if (!args.empty() && args.front() == "verify")
    return run_verify({args.begin() + 1, args.end()});

  Report report;
  try {
    std::size_t i = 0;
    bool did_work = false;
    for (; i < args.size(); ++i) {
      const std::string& arg = args[i];
      if (arg == "--json") {
        json = true;
      } else if (arg == "--help" || arg == "-h") {
        return usage(std::cout, 0);
      } else if (arg == "--topology") {
        if (++i >= args.size()) return usage(std::cerr, 2);
        const miro::topo::AsGraph graph = miro::topo::load_file(args[i]);
        report.merge(miro::analysis::lint_topology(graph, args[i]));
        did_work = true;
      } else if (arg == "--gadget") {
        if (++i >= args.size() || !lint_gadget_arg(report, args[i]))
          return usage(std::cerr, 2);
        did_work = true;
      } else if (!arg.empty() && arg.front() == '-') {
        return usage(std::cerr, 2);
      } else {
        lint_config_file(report, arg);
        did_work = true;
      }
    }
    if (!did_work) return usage(std::cerr, 2);
  } catch (const miro::Error& error) {
    std::cerr << "miro_lint: " << error.what() << "\n";
    return 2;
  }

  report.sort();
  if (json) {
    std::cout << report.to_json().dump() << "\n";
  } else {
    report.render_text(std::cout);
  }
  return report.error_count() > 0 ? 1 : 0;
}
