package kernel

// SpinPollsPerCycle lets the external spin storm bound a refresh's charge.
const SpinPollsPerCycle = spinPollsPerCycle
