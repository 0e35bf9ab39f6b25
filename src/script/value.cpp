#include "script/value.hpp"

#include <cmath>
#include <set>
#include <sstream>

namespace sor::script {

bool Value::Equals(const Value& o) const {
  if (kind_ != o.kind_) return false;
  switch (kind_) {
    case Kind::kNil: return true;
    case Kind::kBool: return boolean_ == o.boolean_;
    case Kind::kNumber: return number_ == o.number_;
    case Kind::kString: return string_ == o.string_;
    case Kind::kList: {
      if (list_ == o.list_) return true;
      if (!list_ || !o.list_) return false;
      if (list_->size() != o.list_->size()) return false;
      for (std::size_t i = 0; i < list_->size(); ++i) {
        if (!(*list_)[i].Equals((*o.list_)[i])) return false;
      }
      return true;
    }
  }
  return false;
}

bool Value::Reaches(const List* list) const {
  if (!is_list()) return false;
  // Depth-first over nested lists, each visited once: lists may share
  // sublists, so an unmarked walk could be exponential.
  std::set<const List*> seen;
  std::vector<const List*> work{list_.get()};
  while (!work.empty()) {
    const List* l = work.back();
    work.pop_back();
    if (l == list) return true;
    if (l == nullptr || !seen.insert(l).second) continue;
    for (const Value& v : *l) {
      if (v.is_list()) work.push_back(v.list_.get());
    }
  }
  return false;
}

std::string Value::ToDisplayString() const {
  switch (kind_) {
    case Kind::kNil: return "nil";
    case Kind::kBool: return boolean_ ? "true" : "false";
    case Kind::kNumber: {
      // Integral numbers print without a trailing ".0", like Lua 5.2.
      if (std::floor(number_) == number_ && std::fabs(number_) < 1e15) {
        std::ostringstream oss;
        oss << static_cast<long long>(number_);
        return oss.str();
      }
      std::ostringstream oss;
      oss << number_;
      return oss.str();
    }
    case Kind::kString: return string_;
    case Kind::kList: {
      std::string out = "{";
      if (list_) {
        for (std::size_t i = 0; i < list_->size(); ++i) {
          if (i) out += ", ";
          out += (*list_)[i].ToDisplayString();
        }
      }
      out += "}";
      return out;
    }
  }
  return "?";
}

const char* Value::TypeName() const {
  switch (kind_) {
    case Kind::kNil: return "nil";
    case Kind::kBool: return "boolean";
    case Kind::kNumber: return "number";
    case Kind::kString: return "string";
    case Kind::kList: return "list";
  }
  return "?";
}

}  // namespace sor::script
