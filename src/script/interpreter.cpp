#include "script/interpreter.hpp"

namespace sor::script {

void HostRegistry::Register(const std::string& name, HostFn fn) {
  fns_[name] = std::move(fn);
}

const HostFn* HostRegistry::Find(const std::string& name) const {
  auto it = fns_.find(name);
  return it == fns_.end() ? nullptr : &it->second;
}

std::vector<std::string> HostRegistry::Names() const {
  std::vector<std::string> names;
  names.reserve(fns_.size());
  for (const auto& [name, _] : fns_) names.push_back(name);
  return names;
}

}  // namespace sor::script
