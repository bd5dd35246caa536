// An example that uses one widget header. The commented-out include below
// is not a directive and reaches nothing.
// #include "widget/orphan.hpp"
#include "widget/used.hpp"

int main() { return widget::used(); }
