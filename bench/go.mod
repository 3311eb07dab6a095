module github.com/dnsprivacy/lookaside/bench

go 1.22

require github.com/dnsprivacy/lookaside v0.0.0

replace github.com/dnsprivacy/lookaside => ../
