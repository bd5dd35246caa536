#include "widget/used.hpp"

#include "widget/helper.hpp"

namespace widget {
int used() { return helper(); }
}
