#pragma once

#include "util/ledger_only.hpp"
