package milp

// RandomPoolMILP exposes the tie-heavy random instance generator to the
// external oracle differential tests.
var RandomPoolMILP = randomPoolMILP
