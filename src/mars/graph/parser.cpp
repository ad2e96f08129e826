#include "mars/graph/parser.h"

#include <fstream>
#include <map>
#include <memory>
#include <sstream>

#include "mars/util/error.h"
#include "mars/util/strings.h"

namespace mars::graph {
namespace {

struct ParserState {
  std::unique_ptr<Graph> graph;
  std::map<std::string, LayerId> names;
  int line_number = 0;

  [[noreturn]] void fail(const std::string& message) const {
    throw InvalidArgument("model parse error at line " +
                          std::to_string(line_number) + ": " + message);
  }

  LayerId resolve(const std::string& name) const {
    auto it = names.find(name);
    if (it == names.end()) fail("unknown layer '" + name + "'");
    return it->second;
  }

  void define(const std::string& name, LayerId id) {
    if (names.count(name) > 0) fail("duplicate layer name '" + name + "'");
    names[name] = id;
  }

  Graph& require_graph() {
    if (graph == nullptr) fail("'model <name>' must come first");
    return *graph;
  }
};

std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream is(line);
  std::string token;
  while (is >> token) {
    if (token[0] == '#') break;  // trailing comment
    tokens.push_back(token);
  }
  return tokens;
}

int parse_int(const ParserState& state, const std::string& token,
              const std::string& what) {
  const std::optional<int> value = mars::parse_int(token);
  if (!value) {
    state.fail("expected an integer for " + what + ", got '" + token + "'");
  }
  return *value;
}

// Parses k<K>/s<S>/p<P> option tokens plus the `nobias` flag.
struct ConvOptions {
  int kernel = 1;
  int stride = 1;
  int pad = 0;
  bool bias = true;
  bool saw_kernel = false;
};

ConvOptions parse_conv_options(ParserState& state,
                               const std::vector<std::string>& tokens,
                               std::size_t first) {
  ConvOptions options;
  for (std::size_t i = first; i < tokens.size(); ++i) {
    const std::string& token = tokens[i];
    if (token == "nobias") {
      options.bias = false;
    } else if (token.size() >= 2 && token[0] == 'k') {
      options.kernel = parse_int(state, token.substr(1), "kernel");
      options.saw_kernel = true;
    } else if (token.size() >= 2 && token[0] == 's') {
      options.stride = parse_int(state, token.substr(1), "stride");
    } else if (token.size() >= 2 && token[0] == 'p') {
      options.pad = parse_int(state, token.substr(1), "padding");
    } else {
      state.fail("unknown option '" + token + "'");
    }
  }
  return options;
}

DataType parse_dtype(ParserState& state, const std::string& token) {
  if (token == "fix16") return DataType::kFix16;
  if (token == "int8") return DataType::kInt8;
  if (token == "float32") return DataType::kFloat32;
  state.fail("unknown dtype '" + token + "' (fix16|int8|float32)");
}

}  // namespace

Graph parse_model(const std::string& text) {
  ParserState state;
  std::istringstream stream(text);
  std::string line;
  while (std::getline(stream, line)) {
    ++state.line_number;
    const std::vector<std::string> tokens = tokenize(line);
    if (tokens.empty()) continue;
    const std::string& op = tokens.front();

    auto need = [&](std::size_t count) {
      if (tokens.size() < count) {
        state.fail("'" + op + "' needs at least " + std::to_string(count - 1) +
                   " arguments");
      }
    };

    if (op == "model") {
      need(2);
      if (state.graph != nullptr) state.fail("duplicate 'model' directive");
      const DataType dtype =
          tokens.size() > 2 ? parse_dtype(state, tokens[2]) : DataType::kFix16;
      state.graph = std::make_unique<Graph>(tokens[1], dtype);
      continue;
    }

    Graph& g = state.require_graph();
    if (op == "input") {
      need(5);
      const TensorShape shape{parse_int(state, tokens[2], "channels"),
                              parse_int(state, tokens[3], "height"),
                              parse_int(state, tokens[4], "width")};
      state.define(tokens[1], g.add_input(shape, tokens[1]));
    } else if (op == "conv") {
      need(5);
      const LayerId input = state.resolve(tokens[2]);
      const int cout = parse_int(state, tokens[3], "out channels");
      const ConvOptions o = parse_conv_options(state, tokens, 4);
      if (!o.saw_kernel) state.fail("conv needs a k<K> option");
      state.define(tokens[1],
                   g.add_conv(tokens[1], input,
                              ConvAttrs::square(cout, o.kernel, o.stride, o.pad,
                                                o.bias)));
    } else if (op == "linear") {
      need(4);
      const LayerId input = state.resolve(tokens[2]);
      const int features = parse_int(state, tokens[3], "out features");
      const bool bias = tokens.size() < 5 || tokens[4] != "nobias";
      state.define(tokens[1], g.add_linear(tokens[1], input, {features, bias}));
    } else if (op == "maxpool" || op == "avgpool") {
      need(4);
      const LayerId input = state.resolve(tokens[2]);
      ConvOptions o = parse_conv_options(state, tokens, 3);
      if (!o.saw_kernel) state.fail(op + " needs a k<K> option");
      if (o.stride == 1) o.stride = o.kernel;  // pooling default
      const PoolAttrs attrs{o.kernel, o.stride, o.pad};
      state.define(tokens[1], op == "maxpool"
                                  ? g.add_max_pool(tokens[1], input, attrs)
                                  : g.add_avg_pool(tokens[1], input, attrs));
    } else if (op == "gap") {
      need(3);
      state.define(tokens[1],
                   g.add_global_avg_pool(tokens[1], state.resolve(tokens[2])));
    } else if (op == "bn") {
      need(3);
      state.define(tokens[1],
                   g.add_batch_norm(tokens[1], state.resolve(tokens[2])));
    } else if (op == "relu") {
      need(3);
      state.define(tokens[1], g.add_relu(tokens[1], state.resolve(tokens[2])));
    } else if (op == "flatten") {
      need(3);
      state.define(tokens[1],
                   g.add_flatten(tokens[1], state.resolve(tokens[2])));
    } else if (op == "add") {
      need(4);
      state.define(tokens[1], g.add_add(tokens[1], state.resolve(tokens[2]),
                                        state.resolve(tokens[3])));
    } else if (op == "concat") {
      need(4);
      std::vector<LayerId> inputs;
      for (std::size_t i = 2; i < tokens.size(); ++i) {
        inputs.push_back(state.resolve(tokens[i]));
      }
      state.define(tokens[1], g.add_concat(tokens[1], inputs));
    } else {
      state.fail("unknown op '" + op + "'");
    }
  }
  if (state.graph == nullptr) {
    throw InvalidArgument("model description is empty");
  }
  state.graph->validate();
  return std::move(*state.graph);
}

Graph parse_model_file(const std::string& path) {
  std::ifstream file(path);
  MARS_CHECK_ARG(file.good(), "cannot open model file '" << path << "'");
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return parse_model(buffer.str());
}

}  // namespace mars::graph
