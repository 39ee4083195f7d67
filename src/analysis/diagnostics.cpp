#include "analysis/diagnostics.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>
#include <tuple>

namespace miro::analysis {

const char* to_string(Severity severity) {
  switch (severity) {
    case Severity::Note: return "note";
    case Severity::Warning: return "warning";
    case Severity::Error: return "error";
  }
  return "?";
}

std::string as_str(const topo::AsGraph& graph, topo::NodeId node) {
  return "AS " + std::to_string(graph.as_number(node));
}

std::string path_str(const topo::AsGraph& graph,
                     const std::vector<topo::NodeId>& path) {
  std::string out;
  for (std::size_t i = 0; i < path.size(); ++i) {
    if (i > 0) out += ' ';
    out += std::to_string(graph.as_number(path[i]));
  }
  return out;
}

Diagnostic& Diagnostic::at(std::string_view in_file, int at_line) {
  file = std::string(in_file);
  line = at_line;
  return *this;
}

Diagnostic& Diagnostic::fix(std::string_view fix_hint) {
  hint = std::string(fix_hint);
  return *this;
}

Diagnostic& Diagnostic::note(std::string note_line) {
  notes.push_back(std::move(note_line));
  return *this;
}

Diagnostic& Report::add(Severity severity, std::string_view check,
                        std::string message) {
  Diagnostic diagnostic;
  diagnostic.severity = severity;
  diagnostic.check = std::string(check);
  diagnostic.message = std::move(message);
  diagnostics_.push_back(std::move(diagnostic));
  return diagnostics_.back();
}

void Report::merge(const Report& other) {
  diagnostics_.insert(diagnostics_.end(), other.diagnostics_.begin(),
                      other.diagnostics_.end());
}

std::size_t Report::count(Severity severity) const {
  std::size_t n = 0;
  for (const Diagnostic& d : diagnostics_)
    if (d.severity == severity) ++n;
  return n;
}

bool Report::has(std::string_view check) const {
  for (const Diagnostic& d : diagnostics_)
    if (d.check == check) return true;
  return false;
}

void Report::sort() {
  std::stable_sort(diagnostics_.begin(), diagnostics_.end(),
                   [](const Diagnostic& a, const Diagnostic& b) {
                     return std::tie(a.file, a.line) < std::tie(b.file, b.line);
                   });
}

void Report::render_text(std::ostream& out) const {
  for (const Diagnostic& d : diagnostics_) {
    if (!d.file.empty()) {
      out << d.file << ':';
      if (d.line > 0) out << d.line << ':';
      out << ' ';
    }
    out << to_string(d.severity) << ": " << d.message << " [" << d.check
        << "]\n";
    if (!d.hint.empty()) out << "  fix-it: " << d.hint << '\n';
    for (const std::string& note : d.notes) out << "  note: " << note << '\n';
  }
  out << error_count() << " error(s), " << count(Severity::Warning)
      << " warning(s), " << count(Severity::Note) << " note(s)\n";
}

std::string Report::text() const {
  std::ostringstream out;
  render_text(out);
  return out.str();
}

JsonValue Report::to_json() const {
  JsonValue root = JsonValue::make_object();
  JsonValue list = JsonValue::make_array();
  for (const Diagnostic& d : diagnostics_) {
    JsonValue item = JsonValue::make_object();
    item.set("severity", JsonValue::make_string(to_string(d.severity)));
    item.set("check", JsonValue::make_string(d.check));
    if (!d.file.empty()) item.set("file", JsonValue::make_string(d.file));
    if (d.line > 0) item.set("line", JsonValue::make_number(d.line));
    item.set("message", JsonValue::make_string(d.message));
    if (!d.hint.empty()) item.set("hint", JsonValue::make_string(d.hint));
    if (!d.notes.empty()) {
      JsonValue notes = JsonValue::make_array();
      for (const std::string& note : d.notes)
        notes.push_back(JsonValue::make_string(note));
      item.set("notes", std::move(notes));
    }
    list.push_back(std::move(item));
  }
  root.set("diagnostics", std::move(list));
  JsonValue counts = JsonValue::make_object();
  counts.set("error", JsonValue::make_number(
                          static_cast<double>(count(Severity::Error))));
  counts.set("warning", JsonValue::make_number(
                            static_cast<double>(count(Severity::Warning))));
  counts.set("note", JsonValue::make_number(
                         static_cast<double>(count(Severity::Note))));
  root.set("counts", std::move(counts));
  return root;
}

}  // namespace miro::analysis
