#pragma once

namespace widget {
int used();
}
