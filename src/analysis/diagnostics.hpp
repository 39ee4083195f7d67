// Compiler-style structured diagnostics for the static analyzers.
//
// Every finding the linters emit is a Diagnostic: a severity, a stable
// check id (the catalog lives in DESIGN.md §9), an optional source location,
// a one-line message, an optional fix-it hint, and free-form note lines that
// carry witnesses (a provider cycle, a dispute wheel's rim paths). A Report
// collects diagnostics and renders them as text ("file:line: error: ...
// [check.id]") or as JSON via common/json, so tools can consume the output
// mechanically (the CI gadget artifact) while humans read the same findings
// in terminal form.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.hpp"
#include "topology/as_graph.hpp"

namespace miro::analysis {

enum class Severity : std::uint8_t { Note = 0, Warning = 1, Error = 2 };

const char* to_string(Severity severity);

struct Diagnostic {
  Severity severity = Severity::Warning;
  std::string check;  ///< stable id, e.g. "policy.acl.undefined"
  std::string file;   ///< config path or system label; "" when none
  int line = 0;       ///< 1-based source line; 0 when not file-based
  std::string message;
  std::string hint;                ///< fix-it suggestion; "" when none
  std::vector<std::string> notes;  ///< witness lines, rendered indented

  /// Fluent location/hint setters so checks read as one statement.
  Diagnostic& at(std::string_view in_file, int at_line = 0);
  Diagnostic& fix(std::string_view fix_hint);
  Diagnostic& note(std::string note_line);
};

/// An ordered collection of diagnostics plus the renderers.
class Report {
 public:
  /// Appends a diagnostic and returns it for fluent decoration.
  Diagnostic& add(Severity severity, std::string_view check,
                  std::string message);
  /// Appends every diagnostic of `other`.
  void merge(const Report& other);

  const std::vector<Diagnostic>& diagnostics() const { return diagnostics_; }
  bool empty() const { return diagnostics_.empty(); }
  std::size_t size() const { return diagnostics_.size(); }
  std::size_t count(Severity severity) const;
  std::size_t error_count() const { return count(Severity::Error); }
  /// True when a diagnostic with the given check id was emitted.
  bool has(std::string_view check) const;

  /// Stable order for deterministic output: (file, line, severity desc,
  /// check, message), preserving insertion order among equals.
  void sort();

  /// `file:line: severity: message [check.id]` per diagnostic, hint and
  /// notes indented underneath.
  void render_text(std::ostream& out) const;
  std::string text() const;

  /// {"diagnostics": [...], "counts": {"error": n, "warning": n, "note": n}}
  JsonValue to_json() const;

 private:
  std::vector<Diagnostic> diagnostics_;
};

/// "AS <number>": how findings name an AS of `graph`.
std::string as_str(const topo::AsGraph& graph, topo::NodeId node);
/// A path of `graph` as its space-separated AS numbers.
std::string path_str(const topo::AsGraph& graph,
                     const std::vector<topo::NodeId>& path);

}  // namespace miro::analysis
