// A test's include does not count: tests check code, they are not why it
// exists.
#include "widget/orphan.hpp"

int main() { return widget::orphan() == 1 ? 0 : 1; }
