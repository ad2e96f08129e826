#include <map>

#include "mars/graph/models/models.h"
#include "mars/util/error.h"
#include "mars/util/strings.h"

namespace mars::graph::models {
namespace {

using Factory = Graph (*)(DataType);

const std::map<std::string, Factory>& factories() {
  static const std::map<std::string, Factory> kFactories = {
      {"alexnet", [](DataType dt) { return alexnet(224, dt); }},
      {"vgg11", [](DataType dt) { return vgg(11, 224, false, dt); }},
      {"vgg13", [](DataType dt) { return vgg(13, 224, false, dt); }},
      {"vgg16", [](DataType dt) { return vgg(16, 224, false, dt); }},
      {"vgg19", [](DataType dt) { return vgg(19, 224, false, dt); }},
      {"resnet18", [](DataType dt) { return resnet(18, 224, 1, dt); }},
      {"resnet34", [](DataType dt) { return resnet(34, 224, 1, dt); }},
      {"resnet50", [](DataType dt) { return resnet(50, 224, 1, dt); }},
      {"resnet101", [](DataType dt) { return resnet(101, 224, 1, dt); }},
      {"resnet152", [](DataType dt) { return resnet(152, 224, 1, dt); }},
      {"wrn50_2", [](DataType dt) { return resnet(50, 224, 2, dt); }},
      {"casia_surf", [](DataType dt) { return casia_surf(224, dt); }},
      {"facebagnet", [](DataType dt) { return facebagnet(96, dt); }},
  };
  return kFactories;
}

}  // namespace

Graph by_name(const std::string& name, DataType dtype) {
  const auto& table = factories();
  auto it = table.find(name);
  if (it == table.end()) {
    throw InvalidArgument("unknown model '" + name +
                          "'; available: " + join(zoo_names(), ", "));
  }
  return it->second(dtype);
}

std::vector<std::string> zoo_names() {
  std::vector<std::string> names;
  names.reserve(factories().size());
  for (const auto& [name, factory] : factories()) names.push_back(name);
  return names;
}

}  // namespace mars::graph::models
