package experiment

// ObserveShapes gives the external tests observe, which times a shape
// that may change with the size.
var ObserveShapes = observe
