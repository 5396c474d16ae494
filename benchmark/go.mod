module metalsvm/benchmark

go 1.22

require metalsvm v0.0.0

replace metalsvm => ../
