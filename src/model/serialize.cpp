#include "model/serialize.hpp"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <vector>

namespace prts {
namespace {

/// Reads the next content line (skipping blanks and '#' comments);
/// false at end of stream.
bool next_line(std::istream& in, std::string& line, std::size_t& lineno) {
  while (std::getline(in, line)) {
    ++lineno;
    const std::size_t start = line.find_first_not_of(" \t\r");
    if (start == std::string::npos) continue;
    if (line[start] == '#') continue;
    return true;
  }
  return false;
}

ParseResult fail(std::size_t lineno, const std::string& what) {
  ParseResult result;
  result.error = "line " + std::to_string(lineno) + ": " + what;
  return result;
}

}  // namespace

void write_instance(std::ostream& out, const Instance& instance) {
  out << "prts-instance v1\n";
  out << "tasks " << instance.chain.size() << "\n";
  for (const Task& task : instance.chain.tasks()) {
    out << task.work << " " << task.out_size << "\n";
  }
  const Platform& platform = instance.platform;
  out << "platform " << platform.processor_count() << " "
      << platform.bandwidth() << " " << platform.link_failure_rate() << " "
      << platform.max_replication() << "\n";
  for (const Processor& proc : platform.processors()) {
    out << proc.speed << " " << proc.failure_rate << "\n";
  }
}

std::string instance_to_text(const Instance& instance) {
  std::ostringstream out;
  write_instance(out, instance);
  return out.str();
}

std::string canonical_number(double value) {
  char buffer[kCanonicalNumberChars];
  return std::string(canonical_number_chars(value, buffer));
}

std::string_view canonical_number_chars(
    double value, char (&buffer)[kCanonicalNumberChars]) noexcept {
  if (value == 0.0) value = 0.0;  // collapse -0.0
  const auto [end, ec] =
      std::to_chars(buffer, buffer + sizeof(buffer), value);
  (void)ec;  // the shortest form always fits, see kCanonicalNumberChars
  return std::string_view(buffer, static_cast<std::size_t>(end - buffer));
}

bool parse_number(std::string_view text, double& value) {
  if (text == "inf") {
    value = std::numeric_limits<double>::infinity();
    return true;
  }
  if (text == "-inf") {
    value = -std::numeric_limits<double>::infinity();
    return true;
  }
  double parsed = 0.0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), parsed);
  if (ec != std::errc{} || ptr != text.data() + text.size()) return false;
  value = parsed;
  return true;
}

bool parse_canonical_number(std::string_view text, double& value) {
  double parsed = 0.0;
  if (!parse_number(text, parsed)) return false;
  char buffer[kCanonicalNumberChars];
  if (canonical_number_chars(parsed, buffer) != text) return false;
  value = parsed;
  return true;
}

void append_instance_canonical(std::string& out, const Instance& instance) {
  out += "prts-instance v1\ntasks ";
  append_integer(out, instance.chain.size());
  out += '\n';
  for (const Task& task : instance.chain.tasks()) {
    append_canonical_number(out, task.work);
    out += ' ';
    append_canonical_number(out, task.out_size);
    out += '\n';
  }
  const Platform& platform = instance.platform;
  out += "platform ";
  append_integer(out, platform.processor_count());
  out += ' ';
  append_canonical_number(out, platform.bandwidth());
  out += ' ';
  append_canonical_number(out, platform.link_failure_rate());
  out += ' ';
  append_integer(out, platform.max_replication());
  out += '\n';
  for (const Processor& proc : platform.processors()) {
    append_canonical_number(out, proc.speed);
    out += ' ';
    append_canonical_number(out, proc.failure_rate);
    out += '\n';
  }
}

void write_instance_canonical(std::ostream& out, const Instance& instance) {
  std::string text;
  append_instance_canonical(text, instance);
  out << text;
}

ParseResult read_instance(std::istream& in) {
  std::string line;
  std::size_t lineno = 0;

  if (!next_line(in, line, lineno)) return fail(lineno, "empty input");
  {
    std::istringstream header(line);
    std::string magic;
    std::string version;
    header >> magic >> version;
    if (magic != "prts-instance" || version != "v1") {
      return fail(lineno, "expected header 'prts-instance v1'");
    }
  }

  if (!next_line(in, line, lineno)) return fail(lineno, "missing tasks line");
  std::size_t n = 0;
  {
    std::istringstream tasks_line(line);
    std::string keyword;
    tasks_line >> keyword >> n;
    if (keyword != "tasks" || tasks_line.fail() || n == 0) {
      return fail(lineno, "expected 'tasks <n>' with n >= 1");
    }
  }

  std::vector<Task> tasks;
  tasks.reserve(n);
  // Labeled form: 'task <id> <work> <out_size>' lines in any order; the
  // ascending id order defines the chain order (ids are labels only).
  std::vector<std::pair<std::int64_t, Task>> labeled;
  for (std::size_t i = 0; i < n; ++i) {
    if (!next_line(in, line, lineno)) {
      return fail(lineno, "expected " + std::to_string(n) +
                              " task lines, got " + std::to_string(i));
    }
    std::istringstream task_line(line);
    Task task;
    std::string first_token;
    {
      std::istringstream probe(line);
      probe >> first_token;
    }
    if (first_token == "task") {
      std::string keyword;
      std::int64_t id = 0;
      task_line >> keyword >> id >> task.work >> task.out_size;
      if (task_line.fail()) {
        return fail(lineno, "expected 'task <id> <work> <out_size>'");
      }
      if (!tasks.empty()) {
        return fail(lineno, "cannot mix labeled and plain task lines");
      }
      labeled.emplace_back(id, task);
    } else {
      if (!labeled.empty()) {
        return fail(lineno, "cannot mix labeled and plain task lines");
      }
      task_line >> task.work >> task.out_size;
      if (task_line.fail()) {
        return fail(lineno, "expected '<work> <out_size>'");
      }
      tasks.push_back(task);
    }
    const Task& parsed_task = labeled.empty() ? tasks.back() : labeled.back().second;
    if (!(parsed_task.work > 0.0) || parsed_task.out_size < 0.0) {
      return fail(lineno, "work must be > 0 and out_size >= 0");
    }
  }
  if (!labeled.empty()) {
    std::stable_sort(labeled.begin(), labeled.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
    for (std::size_t i = 0; i + 1 < labeled.size(); ++i) {
      if (labeled[i].first == labeled[i + 1].first) {
        return fail(lineno, "duplicate task id " +
                                std::to_string(labeled[i].first));
      }
    }
    for (const auto& [id, task] : labeled) tasks.push_back(task);
  }

  if (!next_line(in, line, lineno)) {
    return fail(lineno, "missing platform line");
  }
  std::size_t p = 0;
  double bandwidth = 0.0;
  double link_failure_rate = 0.0;
  unsigned max_replication = 0;
  {
    std::istringstream platform_line(line);
    std::string keyword;
    platform_line >> keyword >> p >> bandwidth >> link_failure_rate >>
        max_replication;
    if (keyword != "platform" || platform_line.fail() || p == 0) {
      return fail(lineno,
                  "expected 'platform <p> <bandwidth> <link_rate> <K>'");
    }
  }
  if (!(bandwidth > 0.0) || link_failure_rate < 0.0 || max_replication < 1) {
    return fail(lineno, "invalid platform parameters");
  }

  std::vector<Processor> processors;
  processors.reserve(p);
  for (std::size_t u = 0; u < p; ++u) {
    if (!next_line(in, line, lineno)) {
      return fail(lineno, "expected " + std::to_string(p) +
                              " processor lines, got " + std::to_string(u));
    }
    std::istringstream proc_line(line);
    Processor proc;
    proc_line >> proc.speed >> proc.failure_rate;
    if (proc_line.fail()) {
      return fail(lineno, "expected '<speed> <failure_rate>'");
    }
    if (!(proc.speed > 0.0) || proc.failure_rate < 0.0) {
      return fail(lineno, "speed must be > 0 and failure rate >= 0");
    }
    processors.push_back(proc);
  }

  ParseResult result;
  result.instance = Instance{
      TaskChain(std::move(tasks)),
      Platform(std::move(processors), bandwidth, link_failure_rate,
               max_replication)};
  return result;
}

ParseResult instance_from_text(const std::string& text) {
  std::istringstream in(text);
  return read_instance(in);
}

}  // namespace prts
