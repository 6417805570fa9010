module p4all/bench

go 1.22

require p4all v0.0.0

replace p4all => ../
