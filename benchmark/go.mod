module bpart/benchmark

go 1.22

require bpart v0.0.0

replace bpart => ../
