module fpmpart/benchmark

go 1.22

require fpmpart v0.0.0

replace fpmpart => ../
