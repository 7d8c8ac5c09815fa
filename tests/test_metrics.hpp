// Shared gtest helper for tests whose assertions read metric values.
#pragma once

#include <gtest/gtest.h>

#include "obs/metrics.hpp"

// Value-recording assertions only hold when the hot path is compiled in.
#define CGN_SKIP_IF_METRICS_DISABLED()                                    \
  if (!obs::kMetricsEnabled)                                              \
  GTEST_SKIP() << "metrics compiled out (-DCGN_OBS=OFF)"
