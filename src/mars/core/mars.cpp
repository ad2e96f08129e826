#include "mars/core/mars.h"

#include "mars/util/error.h"

namespace mars::core {

void validate_config(const MarsConfig& config) {
  ga::validate_config(config.first_ga);
  ga::validate_config(config.second.ga);
  MARS_CHECK_ARG(config.second.max_es_dims >= 1,
                 "second-level max_es_dims must be >= 1, got "
                     << config.second.max_es_dims);
  MARS_CHECK_ARG(config.threads >= 1,
                 "threads must be >= 1, got " << config.threads);
}

}  // namespace mars::core
